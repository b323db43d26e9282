package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"imtrans/internal/stats"
)

// LoadgenOptions parameterises a load-generation run against a live
// imtransd. The zero value drives POST /v1/encode with a small built-in
// benchmark at 50 requests/second for 10 seconds.
type LoadgenOptions struct {
	BaseURL     string        // e.g. http://127.0.0.1:8080
	Path        string        // default /v1/encode
	Method      string        // default POST when Body is set, GET otherwise
	Body        []byte        // default: a small mmul encode request for /v1/encode
	RPS         float64       // request rate; default 50
	Duration    time.Duration // default 10 s
	Concurrency int           // client workers; default 32
	Timeout     time.Duration // per-request; default 30 s
}

// defaultLoadgenBody is the stock request when none is given: encode a
// reduced mmul, cheap to compute once and a cache hit forever after —
// it exercises the whole serving pipeline at high rates.
const defaultLoadgenBody = `{"benchmark":{"name":"mmul","n":24}}`

func (o LoadgenOptions) withDefaults() LoadgenOptions {
	if o.Path == "" {
		o.Path = "/v1/encode"
		if o.Body == nil {
			o.Body = []byte(defaultLoadgenBody)
		}
	}
	if o.Method == "" {
		if len(o.Body) > 0 {
			o.Method = http.MethodPost
		} else {
			o.Method = http.MethodGet
		}
	}
	if o.RPS <= 0 {
		o.RPS = 50
	}
	if o.Duration <= 0 {
		o.Duration = 10 * time.Second
	}
	if o.Concurrency <= 0 {
		o.Concurrency = 32
	}
	if o.Timeout <= 0 {
		o.Timeout = 30 * time.Second
	}
	return o
}

// LoadReport aggregates one loadgen run. A request is "accepted" once the
// server's response headers arrive; Resets counts errors after acceptance
// (a mid-response connection loss), NotAccepted counts requests that
// never got a response (dial refused, client saturation timeouts) — the
// distinction a graceful drain is judged by: accepted requests must
// complete, refused dials are expected once the listener closes.
//
// Connection drops whose error shape is a clean shutdown artifact —
// ECONNRESET, EPIPE, or a bare/unexpected EOF, exactly what a daemon
// closing its listener mid-exchange produces — are classified into
// DrainDrops instead of Resets/NotAccepted, so a drain under load is not
// misread as server failure and budgets like -max5xx judge only real
// responses.
type LoadReport struct {
	Sent        int
	Accepted    int
	NotAccepted int
	Resets      int
	DrainDrops  int // reset/EOF-shaped drops, expected during a clean drain

	StatusCounts map[int]int
	Elapsed      time.Duration
	Throughput   float64 // accepted responses per second

	// Latency percentiles of accepted requests, each timed from when it
	// was due, so time spent queued behind busy workers counts.
	P50, P90, P99, Max time.Duration
	// Generator lateness over every sent request: how long after its due
	// time a worker started it.
	LateP99, LateMax time.Duration
}

// Responses5xx counts accepted responses with a 5xx status.
func (r *LoadReport) Responses5xx() int {
	n := 0
	for code, c := range r.StatusCounts {
		if code >= 500 {
			n += c
		}
	}
	return n
}

// String renders the report as a table plus the headline line the CI
// smoke test greps.
func (r *LoadReport) String() string {
	var t stats.Table
	t.AddRow("metric", "value")
	t.AddRowf("requests sent", r.Sent)
	t.AddRowf("accepted", r.Accepted)
	t.AddRowf("not accepted", r.NotAccepted)
	t.AddRowf("resets", r.Resets)
	t.AddRowf("drain drops (reset/EOF)", r.DrainDrops)
	codes := make([]int, 0, len(r.StatusCounts))
	for c := range r.StatusCounts {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	for _, c := range codes {
		t.AddRowf(fmt.Sprintf("status %d", c), r.StatusCounts[c])
	}
	t.AddRowf("throughput rps", fmt.Sprintf("%.1f", r.Throughput))
	t.AddRowf("latency p50", r.P50.Round(10*time.Microsecond))
	t.AddRowf("latency p90", r.P90.Round(10*time.Microsecond))
	t.AddRowf("latency p99", r.P99.Round(10*time.Microsecond))
	t.AddRowf("latency max", r.Max.Round(10*time.Microsecond))
	t.AddRowf("generator late p99", r.LateP99.Round(10*time.Microsecond))
	t.AddRowf("generator late max", r.LateMax.Round(10*time.Microsecond))
	var b strings.Builder
	b.WriteString(t.String())
	fmt.Fprintf(&b, "responses_5xx %d\n", r.Responses5xx())
	return b.String()
}

// isDrainDrop reports whether err is a reset/EOF-shaped connection drop —
// the error family a daemon produces when it closes connections during a
// clean drain: ECONNRESET, EPIPE, or a bare/truncated EOF. Transport
// errors arrive wrapped (and sometimes flattened to strings by net/http),
// so after the errors.Is checks a substring fallback catches the rest.
func isDrainDrop(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE) {
		return true
	}
	msg := err.Error()
	for _, s := range []string{"connection reset by peer", "broken pipe", "unexpected EOF", "EOF"} {
		if strings.Contains(msg, s) {
			return true
		}
	}
	return false
}

// RunLoadgen drives the target open loop: request i is due i/opts.RPS
// seconds after the start, for every due time before opts.Duration,
// whether or not earlier requests have finished. A due request that finds
// every worker busy waits for one. Each request is timed from its due
// time, so that wait counts against it, and the report gives how late the
// generator started requests. Dispatch stops early only when ctx ends;
// then in-flight requests drain and the run is aggregated. Each request
// uses its own connection (no keep-alive): loadgen's job includes judging
// drains, and connection reuse across a closing listener would blur the
// accepted/not-accepted line it reports.
func RunLoadgen(ctx context.Context, opts LoadgenOptions) (*LoadReport, error) {
	opts = opts.withDefaults()
	if opts.BaseURL == "" {
		return nil, fmt.Errorf("loadgen: BaseURL is required")
	}
	url := strings.TrimRight(opts.BaseURL, "/") + opts.Path

	client := &http.Client{
		Timeout:   opts.Timeout,
		Transport: &http.Transport{DisableKeepAlives: true, MaxIdleConns: 0},
	}

	type sample struct {
		status    int  // 0 when no response arrived
		reset     bool // error after response headers
		drainDrop bool // the error was reset/EOF-shaped (clean-drain artifact)
		accepted  bool
		latency   time.Duration // due time to response end
		late      time.Duration // due time to request start
	}
	var (
		mu      sync.Mutex
		samples []sample
	)

	// Unbuffered: a request is sent when a worker takes its due time.
	queue := make(chan time.Time)
	var wg sync.WaitGroup
	for w := 0; w < opts.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for due := range queue {
				sm := sample{late: time.Since(due)}
				req, err := http.NewRequestWithContext(ctx, opts.Method, url, bytes.NewReader(opts.Body))
				if err == nil {
					if len(opts.Body) > 0 {
						req.Header.Set("Content-Type", "application/json")
					}
					resp, derr := client.Do(req)
					if derr == nil {
						sm.accepted = true
						sm.status = resp.StatusCode
						if _, rerr := io.Copy(io.Discard, resp.Body); rerr != nil {
							if isDrainDrop(rerr) {
								sm.drainDrop = true
							} else {
								sm.reset = true
							}
						}
						resp.Body.Close()
					} else if isDrainDrop(derr) {
						sm.drainDrop = true
					}
				}
				sm.latency = time.Since(due)
				mu.Lock()
				samples = append(samples, sm)
				mu.Unlock()
			}
		}()
	}

	start := time.Now()
	sent := 0
dispatch:
	for {
		off := time.Duration(float64(sent) * float64(time.Second) / opts.RPS)
		if off >= opts.Duration {
			break
		}
		due := start.Add(off)
		wait := time.NewTimer(time.Until(due))
		select {
		case <-wait.C:
		case <-ctx.Done():
			wait.Stop()
			break dispatch
		}
		select {
		case queue <- due:
			sent++
		case <-ctx.Done():
			break dispatch
		}
	}
	close(queue)
	wg.Wait()
	elapsed := time.Since(start)

	rep := &LoadReport{
		Sent:         sent,
		StatusCounts: map[int]int{},
		Elapsed:      elapsed,
	}
	var lat, late []time.Duration
	for _, sm := range samples {
		late = append(late, sm.late)
		switch {
		case sm.drainDrop:
			rep.DrainDrops++
		case sm.reset:
			rep.Resets++
		case sm.accepted:
			rep.Accepted++
			rep.StatusCounts[sm.status]++
			lat = append(lat, sm.latency)
		default:
			rep.NotAccepted++
		}
	}
	rep.Throughput = float64(rep.Accepted) / elapsed.Seconds()
	// pct reads the p-quantile of a sorted slice; p = 1 is its maximum.
	pct := func(d []time.Duration, p float64) time.Duration { return d[int(p*float64(len(d)-1))] }
	if len(lat) > 0 {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		rep.P50, rep.P90, rep.P99, rep.Max = pct(lat, 0.50), pct(lat, 0.90), pct(lat, 0.99), pct(lat, 1)
	}
	if len(late) > 0 {
		sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
		rep.LateP99, rep.LateMax = pct(late, 0.99), pct(late, 1)
	}
	return rep, nil
}
