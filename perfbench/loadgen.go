package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"sync"
	"time"
)

// The open-loop generator. Requests are due at fixed intervals from the
// start of the schedule whether or not earlier ones have finished, the way
// independent users arrive. Each request is timed from when it was due, so
// a stall that holds up later requests counts against them too, and the
// generator reports how late it sent each one. At most conns requests are
// in flight, over at most conns keep-alive connections; a due request that
// finds them all busy waits for one, and that wait is part of its latency.
// A request counts as sent once it holds a connection, so a wait for one —
// behind the generator's own requests or other users of the same client,
// such as job polls — shows as generator lateness, not as server time.

// request is one scheduled call.
type request struct {
	ID   int
	Kind string // encode, measure or compare
	Path string
	Body []byte
}

// sample is the client-side record of one request. Times are offsets from
// the start of the schedule.
type sample struct {
	ID     int
	Kind   string
	Due    time.Duration
	Sent   time.Duration
	Done   time.Duration
	Status int
	Err    error
	Body   []byte
}

func (s sample) ok() bool { return s.Err == nil && s.Status/100 == 2 }

// latency is the time from when the request was due to its response.
func (s sample) latency() time.Duration { return s.Done - s.Due }

// lateness is how long after its due time the request was sent.
func (s sample) lateness() time.Duration { return s.Sent - s.Due }

// dueOffset is when request i of a schedule at rate requests per second
// is due, relative to the schedule's start.
func dueOffset(i int, rate float64) time.Duration {
	return time.Duration(float64(i) * float64(time.Second) / rate)
}

// openLoop sends a request schedule at a fixed rate.
type openLoop struct {
	client *http.Client
	base   string
	rate   float64
	conns  int
}

// newClient returns a client keeping at most conns connections to a host.
func newClient(conns int, timeout time.Duration) *http.Client {
	return &http.Client{
		Timeout: timeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			IdleConnTimeout:     time.Minute,
		},
	}
}

// run sends every request at its due time and returns one sample per
// request, in request order. It returns once every request has finished.
func (g *openLoop) run(reqs []request) []sample {
	start := time.Now()
	// Sized to the number of sends: the dispatcher never blocks, so a busy
	// system delays requests but never makes the schedule skip one.
	queue := make(chan int, len(reqs))
	out := make([]sample, len(reqs))
	var wg sync.WaitGroup
	for w := 0; w < g.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				out[i] = g.do(start, reqs[i], dueOffset(i, g.rate))
			}
		}()
	}
	for i := range reqs {
		if d := time.Until(start.Add(dueOffset(i, g.rate))); d > 0 {
			time.Sleep(d)
		}
		queue <- i
	}
	close(queue)
	wg.Wait()
	return out
}

func (g *openLoop) do(start time.Time, r request, due time.Duration) sample {
	s := sample{ID: r.ID, Kind: r.Kind, Due: due}
	sent := false
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		GotConn: func(httptrace.GotConnInfo) {
			if !sent {
				s.Sent, sent = time.Since(start), true
			}
		},
	})
	s.Status, s.Body, s.Err = postCtx(ctx, g.client, g.base+r.Path, r.Body)
	s.Done = time.Since(start)
	if !sent {
		s.Sent = s.Done // it never obtained a connection
	}
	return s
}

// post sends one JSON body and reads the whole response.
func post(c *http.Client, url string, body []byte) (int, []byte, error) {
	return postCtx(context.Background(), c, url, body)
}

func postCtx(ctx context.Context, c *http.Client, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// get fetches one URL and reads the whole response.
func get(c *http.Client, url string) (int, []byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// latencySummary condenses a sample set. A failed or refused request
// counts as slower than any limit: it sorts above every success, at
// failMS.
type latencySummary struct {
	N         int     `json:"samples"`
	Failed    int     `json:"failed"`
	P50MS     float64 `json:"p50_ms"`
	P99MS     float64 `json:"p99_ms"`
	Beyond99  int     `json:"samples_beyond_p99"`
	LateP99MS float64 `json:"generator_late_p99_ms"`
	LateMaxMS float64 `json:"generator_late_max_ms"`
}

func summarize(samples []sample, failMS float64) latencySummary {
	lat := make([]float64, len(samples))
	late := make([]float64, len(samples))
	sm := latencySummary{N: len(samples)}
	for i, s := range samples {
		lat[i] = latencyMS(s, failMS)
		if !s.ok() {
			sm.Failed++
		}
		late[i] = ms(s.lateness())
		sm.LateMaxMS = max(sm.LateMaxMS, late[i])
	}
	sm.P50MS = percentile(lat, 50)
	sm.P99MS = percentile(lat, 99)
	sm.Beyond99 = beyond(len(lat), 99)
	sm.LateP99MS = percentile(late, 99)
	return sm
}

// latencyMS is a sample's latency in ms, or failMS for a failed request.
func latencyMS(s sample, failMS float64) float64 {
	if !s.ok() {
		return failMS
	}
	return ms(s.latency())
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func describe(s sample) string {
	if s.Err != nil {
		return s.Err.Error()
	}
	return fmt.Sprintf("HTTP %d: %.200s", s.Status, s.Body)
}
