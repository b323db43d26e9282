package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"imtrans/internal/jobs"
)

// cmdJob is the client side of imtransd's durable async job API: submit a
// sweep spec and get back its content-addressed ID, poll status, block
// until a terminal state, fetch the stored result verbatim, or cancel.
func cmdJob(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("job wants a subcommand: submit, status, wait, result, cancel, list")
	}
	sub, rest := args[0], args[1:]
	switch sub {
	case "submit":
		return jobSubmit(rest)
	case "status":
		return jobStatus(rest)
	case "wait":
		return jobWait(rest)
	case "result":
		return jobResult(rest)
	case "cancel":
		return jobCancel(rest)
	case "list":
		return jobList(rest)
	}
	return fmt.Errorf("unknown job subcommand %q (want submit, status, wait, result, cancel, list)", sub)
}

func jobFlags(fs *flag.FlagSet) *string {
	return fs.String("url", "http://127.0.0.1:8080", "base URL of the imtransd to talk to")
}

// jobCall performs one HTTP exchange with the job API under a
// signal-cancelled context; see jobCallCtx.
func jobCall(base, method, path string, body []byte, out any) (int, error) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return jobCallCtx(ctx, base, method, path, body, out)
}

// jobCallCtx performs one HTTP exchange with the job API and decodes the
// response into out (skipped when out is nil). Non-2xx responses become
// errors carrying the server's error body.
func jobCallCtx(ctx context.Context, base, method, path string, body []byte, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, strings.TrimRight(base, "/")+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if len(body) > 0 {
		req.Header.Set("Content-Type", "application/json")
	}
	client := &http.Client{Timeout: 60 * time.Second}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		var e struct {
			Error string `json:"error"`
			State string `json:"state"`
		}
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			if e.State != "" {
				return resp.StatusCode, fmt.Errorf("%s (job state %s)", e.Error, e.State)
			}
			return resp.StatusCode, fmt.Errorf("%s", e.Error)
		}
		return resp.StatusCode, fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, fmt.Errorf("malformed response: %w", err)
		}
	}
	return resp.StatusCode, nil
}

func jobSubmit(args []string) error {
	fs := flag.NewFlagSet("job submit", flag.ExitOnError)
	url := jobFlags(fs)
	body := fs.String("body", "", "job spec: inline JSON, or @file to read one")
	wait := fs.Bool("wait", false, "after submitting, block until the job reaches a terminal state")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("job submit takes flags only")
	}
	if *body == "" {
		return fmt.Errorf("job submit wants -body JSON or -body @file")
	}
	payload := []byte(*body)
	if name, ok := strings.CutPrefix(*body, "@"); ok {
		data, err := os.ReadFile(name)
		if err != nil {
			return err
		}
		payload = data
	}
	var res struct {
		Created bool        `json:"created"`
		Job     jobs.Record `json:"job"`
	}
	if _, err := jobCall(*url, http.MethodPost, "/v1/jobs", payload, &res); err != nil {
		return err
	}
	if res.Created {
		fmt.Printf("job %s scheduled\n", res.Job.ID)
	} else {
		fmt.Printf("job %s already known (%s)\n", res.Job.ID, res.Job.State)
	}
	printJobRecord(res.Job)
	if *wait {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		return waitForJob(ctx, *url, res.Job.ID, 500*time.Millisecond)
	}
	return nil
}

func jobStatus(args []string) error {
	fs := flag.NewFlagSet("job status", flag.ExitOnError)
	url := jobFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("job status wants one job ID")
	}
	var rec jobs.Record
	if _, err := jobCall(*url, http.MethodGet, "/v1/jobs/"+fs.Arg(0), nil, &rec); err != nil {
		return err
	}
	printJobRecord(rec)
	return nil
}

func jobWait(args []string) error {
	fs := flag.NewFlagSet("job wait", flag.ExitOnError)
	url := jobFlags(fs)
	interval := fs.Duration("poll", 500*time.Millisecond, "poll interval")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("job wait wants one job ID")
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return waitForJob(ctx, *url, fs.Arg(0), *interval)
}

// pollBackoffCap bounds the un-jittered poll delay: long sweeps settle
// into one status round-trip every few seconds instead of hammering the
// daemon at the initial rate for hours.
const pollBackoffCap = 5 * time.Second

// pollBackoff returns the delay before poll n (0-based): base doubled
// per poll, capped at pollBackoffCap, then jittered to 0.5–1.5× so a
// fleet of waiting clients spreads out instead of polling in lockstep.
// rnd supplies the jitter draw in [0,1); tests pin it.
func pollBackoff(n int, base time.Duration, rnd func() float64) time.Duration {
	if base <= 0 {
		base = 500 * time.Millisecond
	}
	d := base
	for i := 0; i < n && d < pollBackoffCap; i++ {
		d *= 2
	}
	if d > pollBackoffCap {
		d = pollBackoffCap
	}
	return time.Duration(float64(d) * (0.5 + rnd()))
}

// sleepCtx sleeps for d or until ctx is cancelled, whichever comes
// first — a waiting client answers ^C between polls, not after the next
// interval expires.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// waitForJob polls until the job is terminal, backing off exponentially
// from base with jitter (see pollBackoff) and honouring ctx between and
// during polls. Done exits 0; failed, cancelled or corrupt exit non-zero
// with the typed error spelled out.
func waitForJob(ctx context.Context, url, id string, base time.Duration) error {
	for n := 0; ; n++ {
		var rec jobs.Record
		if _, err := jobCallCtx(ctx, url, http.MethodGet, "/v1/jobs/"+id, nil, &rec); err != nil {
			return err
		}
		if rec.State.Terminal() {
			printJobRecord(rec)
			if rec.State != jobs.StateDone {
				if rec.Error != nil {
					return fmt.Errorf("job %s %s: [%s] %s", id, rec.State, rec.Error.Kind, rec.Error.Message)
				}
				return fmt.Errorf("job %s %s", id, rec.State)
			}
			return nil
		}
		fmt.Printf("job %s %s: %d/%d cells\n", id, rec.State, rec.CellsDone, rec.CellsTotal)
		if err := sleepCtx(ctx, pollBackoff(n, base, rand.Float64)); err != nil {
			return err
		}
	}
}

func jobResult(args []string) error {
	fs := flag.NewFlagSet("job result", flag.ExitOnError)
	url := jobFlags(fs)
	out := fs.String("o", "", "write the result body here instead of stdout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("job result wants one job ID")
	}
	var raw json.RawMessage
	if _, err := jobCall(*url, http.MethodGet, "/v1/jobs/"+fs.Arg(0)+"/result", nil, &raw); err != nil {
		return err
	}
	data := append([]byte(raw), '\n')
	if *out != "" {
		return os.WriteFile(*out, data, 0o644)
	}
	_, err := os.Stdout.Write(data)
	return err
}

func jobCancel(args []string) error {
	fs := flag.NewFlagSet("job cancel", flag.ExitOnError)
	url := jobFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("job cancel wants one job ID")
	}
	var rec jobs.Record
	if _, err := jobCall(*url, http.MethodDelete, "/v1/jobs/"+fs.Arg(0), nil, &rec); err != nil {
		return err
	}
	printJobRecord(rec)
	return nil
}

func jobList(args []string) error {
	fs := flag.NewFlagSet("job list", flag.ExitOnError)
	url := jobFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("job list takes flags only")
	}
	var res struct {
		Jobs []jobs.Record `json:"jobs"`
	}
	if _, err := jobCall(*url, http.MethodGet, "/v1/jobs", nil, &res); err != nil {
		return err
	}
	if len(res.Jobs) == 0 {
		fmt.Println("no jobs")
		return nil
	}
	for _, rec := range res.Jobs {
		fmt.Printf("%s  %-9s  %d/%d cells  attempts %d  resumes %d\n",
			rec.ID, rec.State, rec.CellsDone, rec.CellsTotal, rec.Attempts, rec.Resumes)
	}
	return nil
}

func printJobRecord(rec jobs.Record) {
	fmt.Printf("  id:       %s\n", rec.ID)
	fmt.Printf("  state:    %s\n", rec.State)
	fmt.Printf("  progress: %d/%d cells", rec.CellsDone, rec.CellsTotal)
	if rec.Restored > 0 {
		fmt.Printf(" (%d restored from journal)", rec.Restored)
	}
	fmt.Println()
	fmt.Printf("  attempts: %d (resumes %d)\n", rec.Attempts, rec.Resumes)
	if rec.Error != nil {
		fmt.Printf("  error:    [%s] %s\n", rec.Error.Kind, rec.Error.Message)
	}
}
