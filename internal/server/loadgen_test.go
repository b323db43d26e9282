package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"syscall"
	"testing"
	"time"
)

func TestIsDrainDrop(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"eof", io.EOF, true},
		{"unexpected-eof", io.ErrUnexpectedEOF, true},
		{"econnreset", syscall.ECONNRESET, true},
		{"epipe", syscall.EPIPE, true},
		{"wrapped-reset", fmt.Errorf("read tcp: %w", syscall.ECONNRESET), true},
		{"stringified-reset", errors.New(`Post "http://x": read tcp 127.0.0.1:1->127.0.0.1:2: read: connection reset by peer`), true},
		{"stringified-eof", errors.New(`Post "http://x": EOF`), true},
		{"timeout", context.DeadlineExceeded, false},
		{"refused", syscall.ECONNREFUSED, false},
		{"other", errors.New("no route to host"), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := isDrainDrop(tc.err); got != tc.want {
				t.Fatalf("isDrainDrop(%v) = %v, want %v", tc.err, got, tc.want)
			}
		})
	}
}

// TestLoadgenClassifiesDrainDrops abruptly resets every accepted
// connection — the shape a daemon closing its listener mid-exchange
// produces — and asserts the drops land in DrainDrops, not in Resets or
// NotAccepted, so drain artifacts never charge a failure budget.
func TestLoadgenClassifiesDrainDrops(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			// Read a little of the request, then reset hard: SetLinger(0)
			// makes Close send RST, so the client sees ECONNRESET/EOF —
			// exactly the clean-drain error family.
			buf := make([]byte, 256)
			c.Read(buf)
			if tc, ok := c.(*net.TCPConn); ok {
				tc.SetLinger(0)
			}
			c.Close()
		}
	}()

	rep, err := RunLoadgen(context.Background(), LoadgenOptions{
		BaseURL:     "http://" + l.Addr().String(),
		Path:        "/v1/encode",
		Method:      http.MethodPost,
		Body:        []byte(defaultLoadgenBody),
		RPS:         200,
		Duration:    300 * time.Millisecond,
		Concurrency: 8,
		Timeout:     2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	<-done

	if rep.DrainDrops == 0 {
		t.Fatalf("expected drain drops from reset connections, got report:\n%s", rep)
	}
	if rep.Resets != 0 {
		t.Errorf("resets = %d, want 0 (drops must classify as drain drops)", rep.Resets)
	}
	if rep.NotAccepted != 0 {
		t.Errorf("not accepted = %d, want 0 (drops must classify as drain drops)", rep.NotAccepted)
	}
	if rep.Responses5xx() != 0 {
		t.Errorf("responses5xx = %d, want 0", rep.Responses5xx())
	}
}

// TestLoadgenQueuesBacklog drives a 20 ms handler at 100 rps with one
// worker for 1 s. The open loop must send all 100 due requests, and the
// ~1 s backlog they queue behind must show in the latency tail and in the
// generator's lateness instead of being skipped.
func TestLoadgenQueuesBacklog(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(20 * time.Millisecond)
	}))
	defer srv.Close()
	rep, err := RunLoadgen(context.Background(), LoadgenOptions{
		BaseURL:     srv.URL,
		RPS:         100,
		Duration:    time.Second,
		Concurrency: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sent != 100 || rep.Accepted != 100 || rep.StatusCounts[http.StatusOK] != 100 {
		t.Fatalf("sent %d, accepted %d, 200s %d; want 100 each\n%s",
			rep.Sent, rep.Accepted, rep.StatusCounts[http.StatusOK], rep)
	}
	// 100 requests of at least 20 ms each take at least 2 s on one worker;
	// the last is due at 0.99 s, so it waits about a second.
	if rep.Max < 900*time.Millisecond || rep.LateMax < 800*time.Millisecond {
		t.Errorf("max latency %v, max lateness %v; want the ~1 s backlog\n%s", rep.Max, rep.LateMax, rep)
	}
	if rep.P99 < 800*time.Millisecond || rep.LateP99 < 700*time.Millisecond {
		t.Errorf("p99 latency %v, p99 lateness %v; want the ~1 s backlog\n%s", rep.P99, rep.LateP99, rep)
	}
}
