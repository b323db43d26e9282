package main

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct {
		p    float64
		want float64
	}{
		{50, 5}, {90, 9}, {99, 10}, {100, 10}, {10, 1}, {1, 1}, {95, 10},
	} {
		if got := percentile(vals, c.p); got != c.want {
			t.Errorf("percentile(p%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if vals[0] != 5 {
		t.Errorf("percentile reordered its input")
	}
}

func TestBeyondCountsTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{
		{1000, 99, 10}, {1099, 99, 10}, {1100, 99, 11}, {100, 99, 1}, {10, 99, 0}, {0, 99, 0},
	} {
		if got := beyond(c.n, c.p); got != c.want {
			t.Errorf("beyond(%d, p%v) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

func TestDueOffset(t *testing.T) {
	for _, c := range []struct {
		i    int
		rate float64
		want time.Duration
	}{
		{0, 100, 0}, {1, 100, 10 * time.Millisecond}, {250, 100, 2500 * time.Millisecond}, {3, 4, 750 * time.Millisecond},
	} {
		if got := dueOffset(c.i, c.rate); got != c.want {
			t.Errorf("dueOffset(%d, %v) = %v, want %v", c.i, c.rate, got, c.want)
		}
	}
}

func TestSummarizeFailuresCountAsSlowest(t *testing.T) {
	var ss []sample
	for i := 0; i < 100; i++ {
		ss = append(ss, sample{Due: 0, Sent: time.Millisecond, Done: time.Duration(i+1) * time.Millisecond, Status: 200})
	}
	ss[0].Status = 503 // fastest response, but refused
	sm := summarize(ss, 1e6)
	if sm.Failed != 1 || sm.P99MS != 100 {
		t.Errorf("one refusal in 100: failed=%d p99=%v, want 1 and 100", sm.Failed, sm.P99MS)
	}
	ss[1].Err = http.ErrHandlerTimeout
	if sm = summarize(ss, 1e6); sm.P99MS != 1e6 {
		t.Errorf("two failures in 100: p99 = %v, want the failure value", sm.P99MS)
	}
	if sm.LateP99MS != 1 || sm.LateMaxMS != 1 {
		t.Errorf("lateness p99=%v max=%v, want 1ms", sm.LateP99MS, sm.LateMaxMS)
	}
}

// TestOpenLoopTimesFromDue drives a server that takes 20ms per request over
// one connection at 100 requests/s: the schedule outpaces the server, so
// each request waits longer than the last. The generator must still send
// every request (no dropped ticks), hold at most one connection, and charge
// the wait to each request's latency and lateness.
func TestOpenLoopTimesFromDue(t *testing.T) {
	var inFlight, maxInFlight, served atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := inFlight.Add(1)
		for {
			m := maxInFlight.Load()
			if n <= m || maxInFlight.CompareAndSwap(m, n) {
				break
			}
		}
		time.Sleep(20 * time.Millisecond)
		inFlight.Add(-1)
		served.Add(1)
		w.Write([]byte("{}"))
	}))
	defer srv.Close()

	reqs := make([]request, 10)
	for i := range reqs {
		reqs[i] = request{ID: i, Path: "/", Body: []byte("{}")}
	}
	g := &openLoop{client: newClient(1, 5*time.Second), base: srv.URL, rate: 100, conns: 1}
	out := g.run(reqs)
	if served.Load() != 10 || maxInFlight.Load() != 1 {
		t.Fatalf("served %d requests with up to %d in flight, want 10 and 1", served.Load(), maxInFlight.Load())
	}
	for i, s := range out {
		if !s.ok() {
			t.Fatalf("request %d failed: %v", i, describe(s))
		}
		if s.Due != dueOffset(i, 100) {
			t.Errorf("request %d due at %v, want %v", i, s.Due, dueOffset(i, 100))
		}
		if s.latency() < s.lateness() || s.latency() < 20*time.Millisecond {
			t.Errorf("request %d latency %v shorter than its wait %v plus service", i, s.latency(), s.lateness())
		}
	}
	// Service takes twice the interval, so the last request waits for the
	// nine before it: about 9*20ms - 9*10ms = 90ms late.
	if last := out[9].lateness(); last < 60*time.Millisecond {
		t.Errorf("last request only %v late; the queueing delay was not charged", last)
	}
}

// TestOpenLoopConnWaitIsLateness holds the client's only connection with
// another caller's slow request when a generator request falls due. The
// wait for the connection must show as lateness, and the request's time
// after it only as its own fast service.
func TestOpenLoopConnWaitIsLateness(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/slow" {
			time.Sleep(100 * time.Millisecond)
		}
		w.Write([]byte("{}"))
	}))
	defer srv.Close()

	c := newClient(1, 5*time.Second)
	held := make(chan struct{})
	go func() {
		defer close(held)
		get(c, srv.URL+"/slow")
	}()
	time.Sleep(20 * time.Millisecond) // let the slow request take the connection
	g := &openLoop{client: c, base: srv.URL, rate: 100, conns: 1}
	out := g.run([]request{{ID: 0, Path: "/fast", Body: []byte("{}")}})
	<-held
	s := out[0]
	if !s.ok() {
		t.Fatalf("request failed: %v", describe(s))
	}
	if s.lateness() < 50*time.Millisecond {
		t.Errorf("lateness %v: the wait for the held connection was not charged to the generator", s.lateness())
	}
	if own := s.Done - s.Sent; own > 50*time.Millisecond {
		t.Errorf("request took %v after obtaining its connection; the wait was charged to the server", own)
	}
}
