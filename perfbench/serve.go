package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"imtrans"
	"imtrans/internal/jobs"
	"imtrans/internal/server"
)

// serve-mixed: the shipped imtransd as a child process on loopback, with
// its job and artifact stores in temporary directories, driven open loop
// at a fixed rate below saturation by synchronous encode, measure and
// compare requests over small-scale kernels — a fixed share repeating an
// earlier body, so they are result-cache reads — while sweep jobs are
// submitted at a fixed interval and polled to done. The HTTP/JSON layer,
// admission, the result cache and store reads work only here, and the
// jobs add the write side: checkpoint journal, job records, store writes.

// The traffic's rate and mix. The rate is a fifth of the saturation rate
// measured by stepping -rate (METRICS.md); the mix shares are fixed
// choices. A repeat reaches back at most a quarter of the daemon's default
// 256-entry result cache, so every repeat is a cache hit. Job polls share
// the generator's connections and are part of the measured load.
const (
	serveRate    = 100.0       // synchronous requests per second
	repeatWindow = 64          // how far back a repeat may reach
	jobInterval  = time.Second // between job submissions
	pollInterval = 25 * time.Millisecond
	requestLimit = 30 * time.Second // a request slower than this has failed
	jobLimit     = 60 * time.Second
	// daemonSetups is how many daemons are set up before the session (the
	// last one serves it) and again after it.
	daemonSetups = 8
	// jobFsync is the daemon's -jobs.fsync. It is on by default; it is off
	// here because disk syncs on a shared host made job turnaround unsteady
	// (METRICS.md).
	jobFsync = false
)

// daemonFlags are the flags imtransd runs with: loopback on a free port,
// the stores in the given directories, job fsync off, everything else at
// its default.
func daemonFlags(jobsDir, storeDir string) []string {
	return []string{"-addr", "127.0.0.1:0", "-jobs.dir", jobsDir, "-store.dir", storeDir,
		fmt.Sprintf("-jobs.fsync=%v", jobFsync)}
}

// smallKernels are the six paper kernels at the reduced sizes of
// reproduce -small.
var smallKernels = []server.BenchmarkRef{
	{Name: "mmul", N: 24}, {Name: "sor", N: 32, Iters: 2}, {Name: "ej", N: 24, Iters: 4},
	{Name: "fft", N: 64}, {Name: "tri", N: 32, Iters: 10}, {Name: "lu", N: 24},
}

// daemon is one running imtransd.
type daemon struct {
	cmd  *exec.Cmd
	base string
	logs bytes.Buffer
	done chan struct{} // closed once the log reader has finished
	mu   sync.Mutex
}

// startDaemon launches imtransd over fresh stores under dir, which must
// not exist yet, and waits until it reports ready.
func startDaemon(o options, dir string) (*daemon, error) {
	if o.imtransd == "" {
		return nil, fmt.Errorf("serve-mixed needs -imtransd")
	}
	if err := os.Mkdir(dir, 0o755); err != nil {
		return nil, err
	}
	d := &daemon{done: make(chan struct{})}
	d.cmd = exec.Command(o.imtransd, daemonFlags(filepath.Join(dir, "jobs"), filepath.Join(dir, "store"))...)
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // never outlive the benchmark
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	addr := make(chan string, 1)
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.logs.WriteString(line + "\n")
			d.mu.Unlock()
			if _, a, ok := strings.Cut(line, "listening on "); ok {
				select {
				case addr <- a:
				default:
				}
			}
		}
	}()
	select {
	case a := <-addr:
		d.base = "http://" + strings.TrimSpace(a)
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("imtransd did not start listening: %s", d.logText())
	}
	c := newClient(1, time.Second)
	defer c.CloseIdleConnections()
	for deadline := time.Now().Add(30 * time.Second); ; {
		if status, _, err := get(c, d.base+"/readyz"); err == nil && status == http.StatusOK {
			return d, nil
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("imtransd never became ready: %s", d.logText())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (d *daemon) logText() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.logs.String()
}

// stop drains the daemon with SIGTERM (SIGKILL if it will not exit) and
// returns its peak resident set in MB.
func (d *daemon) stop() (float64, error) {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	exited := make(chan error, 1)
	go func() {
		<-d.done
		exited <- d.cmd.Wait()
	}()
	var err error
	select {
	case err = <-exited:
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		err = <-exited
		if err == nil {
			err = fmt.Errorf("imtransd did not drain within 30s")
		}
	}
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024, err
	}
	return 0, err
}

// traffic is one seeded session: the synchronous requests, which distinct
// body each one carries, and the job specs.
type traffic struct {
	rate   float64 // synchronous requests per second
	reqs   []request
	bodyOf []int // request -> index into bodies
	bodies []request
	jobs   []jobs.Spec
}

// drawTraffic generates a session of n synchronous requests at rate per
// second and nJobs sweep jobs from the seed. Every seed sends the same mix
// — one request in four a repeat, fresh ones 4:3:3 encode, measure and
// compare, each config of the paper space and each kernel equally often —
// so seeds differ only in which body pairs with which request and when.
func drawTraffic(seed int64, rate float64, n, nJobs int) traffic {
	rng := rand.New(rand.NewSource(seed))
	d := &dealer{rng: rng, decks: map[string]*deck{}}
	t := traffic{rate: rate}
	seen := map[string]int{}
	for i := 0; i < n; i++ {
		if len(t.bodies) > 0 && d.deal("repeat", 4) == 0 {
			from := max(0, len(t.bodies)-repeatWindow)
			b := from + rng.Intn(len(t.bodies)-from)
			t.bodyOf = append(t.bodyOf, b)
			t.reqs = append(t.reqs, request{ID: i, Kind: t.bodies[b].Kind, Path: t.bodies[b].Path, Body: t.bodies[b].Body})
			continue
		}
		body := drawBody(d)
		b, ok := seen[string(body.Body)]
		if !ok {
			b = len(t.bodies)
			seen[string(body.Body)] = b
			t.bodies = append(t.bodies, body)
		}
		t.bodyOf = append(t.bodyOf, b)
		t.reqs = append(t.reqs, request{ID: i, Kind: body.Kind, Path: body.Path, Body: body.Body})
	}
	for j := 0; j < nJobs; j++ {
		sp := jobs.Spec{DeadlineSeconds: 3600 + j} // unique per job, so no submission dedups onto another
		for _, k := range smallKernels {
			sp.Benchmarks = append(sp.Benchmarks, jobs.BenchmarkRef{Name: k.Name, N: k.N, Iters: k.Iters})
		}
		for k := 2; k <= 8; k++ {
			for s := 0; s < 4; s++ {
				c := capacities[d.deal("job capacity", len(capacities))]
				sp.Configs = append(sp.Configs, jobs.ConfigRef{BlockSize: k, TTEntries: c[0], BBITEntries: c[1],
					AllFunctions: s&1 == 1, Exact: s&2 == 2, Knapsack: rng.Intn(2) == 1})
			}
		}
		t.jobs = append(t.jobs, sp)
	}
	return t
}

// dealer hands out values from named decks: each deck holds 0..n-1,
// shuffled from the seed and dealt to the end before it is reshuffled, so
// every value is drawn equally often whatever the seed.
type dealer struct {
	rng   *rand.Rand
	decks map[string]*deck
}

type deck struct{ left []int }

func (d *dealer) deal(name string, n int) int {
	dk := d.decks[name]
	if dk == nil {
		dk = &deck{}
		d.decks[name] = dk
	}
	if len(dk.left) == 0 {
		dk.left = d.rng.Perm(n)
	}
	v := dk.left[0]
	dk.left = dk.left[1:]
	return v
}

// drawBody draws one fresh synchronous request: an encode of one kernel, a
// measure of one or two kernels under one to three configs, or a compare
// of one or two kernels across two to four scheme specs.
func drawBody(d *dealer) request {
	config := func() server.ConfigRequest {
		c := paperConfig(d.deal("config", paperSpace))
		return server.ConfigRequest{BlockSize: c.BlockSize, TTEntries: c.TTEntries, BBITEntries: c.BBITEntries,
			AllFunctions: c.AllFunctions, Exact: c.Exact, Knapsack: c.Knapsack}
	}
	kernels := func() []server.BenchmarkRef {
		out := []server.BenchmarkRef{smallKernels[d.deal("kernel", len(smallKernels))]}
		if d.deal("two kernels", 2) == 1 {
			k := smallKernels[d.deal("kernel", len(smallKernels))]
			if k.Name != out[0].Name {
				out = append(out, k)
			}
		}
		return out
	}
	switch kind := d.deal("kind", 10); {
	case kind < 4:
		k := smallKernels[d.deal("kernel", len(smallKernels))]
		return request{Kind: "encode", Path: "/v1/encode", Body: mustMarshal(server.EncodeRequest{Benchmark: &k, Config: config()})}
	case kind < 7:
		req := server.MeasureRequest{Benchmarks: kernels()}
		for n := 1 + d.deal("configs", 3); len(req.Configs) < n; {
			req.Configs = append(req.Configs, config())
		}
		return request{Kind: "measure", Path: "/v1/measure", Body: mustMarshal(req)}
	default:
		req := server.CompareRequest{Benchmarks: kernels()}
		names := []string{"paper", "businvert", "dictionary", "gray", "t0", "codebook", "lwc"}
		for _, i := range d.rng.Perm(len(names))[:2+d.deal("schemes", 3)] {
			sc := server.SchemeRequest{Name: names[i]}
			switch names[i] {
			case "paper":
				sc.Config = config()
			case "businvert", "gray", "t0":
				sc.Config.BusWidth = 1 + d.deal("width", 32)
			case "dictionary", "codebook":
				sc.Entries = 1 << (1 + d.deal("entries", 12))
			case "lwc":
				sc.ExtraLines = 1 + d.deal("extra lines", 8)
			}
			req.Schemes = append(req.Schemes, sc)
		}
		return request{Kind: "compare", Path: "/v1/compare", Body: mustMarshal(req)}
	}
}

func mustMarshal(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("perfbench: marshalling a request: %v", err))
	}
	return b
}

// warmBody is the set-up request: a measure over all six kernels, which
// takes every capture before the session; session bodies name at most two
// kernels, so none of them is served from the warm-up's cache entry.
var warmBody = mustMarshal(server.MeasureRequest{Benchmarks: smallKernels})

// setupDaemon starts a daemon and warms it; it returns the daemon and the
// set-up time.
func setupDaemon(o options, dir string) (*daemon, float64, error) {
	start := time.Now()
	d, err := startDaemon(o, dir)
	if err != nil {
		return nil, 0, err
	}
	c := newClient(1, requestLimit)
	defer c.CloseIdleConnections()
	status, body, err := post(c, d.base+"/v1/measure", warmBody)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("warm-up: HTTP %d: %.200s", status, body)
	}
	if err != nil {
		d.stop()
		return nil, 0, err
	}
	return d, seconds(time.Since(start)), nil
}

// jobRun is the client's view of one job.
type jobRun struct {
	id                      string
	submitted, running, end time.Duration // offsets from the session start
	state                   jobs.State
	result                  []byte
	err                     error
}

// session is one run of the traffic against a daemon.
type session struct {
	samples []sample
	jobs    []jobRun
	wall    time.Duration
	before  map[string]float64 // /metrics scrapes
	after   map[string]float64
}

func runSession(d *daemon, t traffic, scrape bool) (*session, error) {
	c := newClient(runtime.NumCPU(), requestLimit)
	defer c.CloseIdleConnections()
	s := &session{jobs: make([]jobRun, len(t.jobs))}
	if scrape {
		m, err := scrapeMetrics(c, d.base)
		if err != nil {
			return nil, err
		}
		s.before = m
	}
	start := time.Now()
	var wg sync.WaitGroup
	for j := range t.jobs {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			due := jobInterval/2 + time.Duration(j)*jobInterval
			time.Sleep(time.Until(start.Add(due)))
			s.jobs[j] = runJob(c, d.base, start, t.jobs[j])
		}(j)
	}
	g := &openLoop{client: c, base: d.base, rate: t.rate, conns: runtime.NumCPU()}
	s.samples = g.run(t.reqs)
	s.wall = time.Since(start)
	wg.Wait()
	if scrape {
		m, err := scrapeMetrics(c, d.base)
		if err != nil {
			return nil, err
		}
		s.after = m
	}
	return s, nil
}

// runJob submits one job, polls its record until it settles and fetches
// its result.
func runJob(c *http.Client, base string, start time.Time, sp jobs.Spec) jobRun {
	jr := jobRun{submitted: time.Since(start)}
	status, body, err := post(c, base+"/v1/jobs", mustMarshal(sp))
	if err == nil && status != http.StatusAccepted {
		err = fmt.Errorf("submit: HTTP %d: %.200s", status, body)
	}
	var sub server.JobSubmitResponse
	if err == nil {
		err = json.Unmarshal(body, &sub)
	}
	if err != nil {
		jr.err = err
		return jr
	}
	jr.id = sub.Job.ID
	for deadline := time.Now().Add(jobLimit); ; {
		status, body, err := get(c, base+"/v1/jobs/"+jr.id)
		var rec jobs.Record
		if err == nil && status == http.StatusOK {
			err = json.Unmarshal(body, &rec)
		} else if err == nil {
			err = fmt.Errorf("poll: HTTP %d", status)
		}
		if err != nil {
			jr.err = err
			return jr
		}
		now := time.Since(start)
		if rec.State != jobs.StateQueued && jr.running == 0 {
			jr.running = now
		}
		if rec.State.Terminal() || rec.State == jobs.StateCorrupt {
			jr.end, jr.state = now, rec.State
			break
		}
		if time.Now().After(deadline) {
			jr.err = fmt.Errorf("job %s still %s after %v", jr.id, rec.State, jobLimit)
			return jr
		}
		time.Sleep(pollInterval)
	}
	status, body, err = get(c, base+"/v1/jobs/"+jr.id+"/result")
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("result: HTTP %d: %.200s", status, body)
	}
	jr.result, jr.err = body, err
	return jr
}

// scrapeMetrics reads /metrics into a map from series (name plus labels)
// to value.
func scrapeMetrics(c *http.Client, base string) (map[string]float64, error) {
	status, body, err := get(c, base+"/metrics")
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("/metrics: HTTP %d", status)
	}
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		var v float64
		if _, err := fmt.Sscan(line[i+1:], &v); err == nil {
			out[line[:i]] = v
		}
	}
	return out, nil
}

func runServe(o options) (*run, error) {
	r := newRun()
	// The previous run's stores are removed here, before anything is
	// timed: the serving daemon's job journals can run to hundreds of MB.
	dir := filepath.Join(o.out, "serve")
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	t := drawTraffic(o.seed, o.rate, int(o.rate*float64(o.seconds)), max(1, int(time.Duration(o.seconds)*time.Second/jobInterval)))

	if o.trace {
		return r, serveTraced(o, r, t, dir)
	}
	// Set-up: daemon start to /readyz plus the warm-up request, measured
	// over daemons started before the session and after it, so that the
	// median spans the run rather than one moment of the host. The last
	// daemon started before the session serves it.
	var setups []float64
	setupOnce := func() (*daemon, error) {
		d, s, err := setupDaemon(o, filepath.Join(dir, fmt.Sprintf("setup%d", len(setups))))
		if err == nil {
			setups = append(setups, s)
		}
		return d, err
	}
	setupMore := func(n int) error {
		for i := 0; i < n; i++ {
			d, err := setupOnce()
			if err != nil {
				return err
			}
			if _, err := d.stop(); err != nil {
				return err
			}
		}
		return nil
	}
	if err := setupMore(daemonSetups - 1); err != nil {
		return nil, err
	}
	d, err := setupOnce()
	if err != nil {
		return nil, err
	}
	s, err := runSession(d, t, false)
	rss, stopErr := d.stop()
	if err != nil {
		return nil, err
	}
	if stopErr != nil {
		r.fail("imtransd: %v", stopErr)
	}
	if err := setupMore(daemonSetups); err != nil {
		return nil, err
	}
	checkSession(r, t, s)

	sm := summarize(s.samples, ms(requestLimit))
	var turn []float64
	for _, jr := range s.jobs {
		took := jr.end - jr.submitted
		if jr.err != nil || jr.state != jobs.StateDone {
			took = jobLimit // a failed job counts as slower than any limit
		}
		turn = append(turn, seconds(took))
	}
	r.set("setup_s", "s", median(setups))
	r.set("grid_s", "s", median(turn))
	r.detail["peak_rss_mb"] = rss
	r.detail["serve_p50_ms"] = sm.P50MS
	r.detail["serve_p99_ms"] = sm.P99MS
	r.detail["job_turnaround_s"] = median(turn)
	r.detail["requests"] = sm
	r.detail["distinct_bodies"] = len(t.bodies)
	r.detail["jobs"] = len(s.jobs)
	r.detail["setup_samples_s"] = setups
	return r, nil
}

// checkSession checks every response and job result against the
// in-process facade's result for the same body, after the session.
func checkSession(r *run, t traffic, s *session) {
	want := make([][]byte, len(t.bodies))
	for i, b := range t.bodies {
		v, err := facadeView(b)
		if err != nil {
			r.fail("in-process %s: %v", b.Kind, err)
			continue
		}
		want[i] = v
	}
	for i, smp := range s.samples {
		r.res.Attempted++
		if !smp.ok() {
			r.fail("%s request %d: %s", smp.Kind, smp.ID, describe(smp))
			continue
		}
		got, err := responseView(smp.Kind, smp.Body)
		if err != nil {
			r.fail("%s request %d: %v", smp.Kind, smp.ID, err)
			continue
		}
		if w := want[t.bodyOf[i]]; w != nil && !bytes.Equal(got, w) {
			r.fail("%s request %d: response differs from the in-process result", smp.Kind, smp.ID)
		}
	}
	for j, jr := range s.jobs {
		r.res.Attempted++
		if jr.err != nil || jr.state != jobs.StateDone {
			r.fail("job %d (%s): state %q: %v", j, jr.id, jr.state, jr.err)
			continue
		}
		if err := checkJob(t.jobs[j], jr.result); err != nil {
			r.fail("job %d (%s): %v", j, jr.id, err)
		}
	}
}

// responseView re-encodes a response body without its counters, which
// describe how the daemon scheduled the work rather than its result.
func responseView(kind string, body []byte) ([]byte, error) {
	switch kind {
	case "encode":
		var v server.EncodeResponse
		if err := json.Unmarshal(body, &v); err != nil {
			return nil, err
		}
		return json.Marshal(v)
	case "measure":
		var v server.MeasureResponse
		if err := json.Unmarshal(body, &v); err != nil {
			return nil, err
		}
		v.Counters = nil
		return json.Marshal(v)
	default:
		var v server.CompareResponse
		if err := json.Unmarshal(body, &v); err != nil {
			return nil, err
		}
		v.Counters = nil
		return json.Marshal(v)
	}
}

// facadeView computes the view of a request's response in process.
func facadeView(req request) ([]byte, error) {
	ctx := context.Background()
	resolve := func(refs []server.BenchmarkRef) ([]imtrans.Benchmark, error) {
		out := make([]imtrans.Benchmark, len(refs))
		for i, ref := range refs {
			b, err := imtrans.BenchmarkByName(ref.Name)
			if err != nil {
				return nil, err
			}
			out[i] = b.WithScale(ref.N, ref.Iters)
		}
		return out, nil
	}
	switch req.Kind {
	case "encode":
		var er server.EncodeRequest
		if err := json.Unmarshal(req.Body, &er); err != nil {
			return nil, err
		}
		bs, err := resolve([]server.BenchmarkRef{*er.Benchmark})
		if err != nil {
			return nil, err
		}
		cfg := er.Config.Config()
		rep, err := bs[0].Encode(cfg)
		if err != nil {
			return nil, err
		}
		return json.Marshal(server.EncodeResponse{Config: cfg.String(), Report: rep})
	case "measure":
		var mr server.MeasureRequest
		if err := json.Unmarshal(req.Body, &mr); err != nil {
			return nil, err
		}
		bs, err := resolve(mr.Benchmarks)
		if err != nil {
			return nil, err
		}
		var v server.MeasureResponse
		var cfgs []imtrans.Config
		for _, c := range mr.Configs {
			cfgs = append(cfgs, c.Config())
			v.Configs = append(v.Configs, c.Config().String())
		}
		res, err := imtrans.SweepMeasureCtx(ctx, bs, cfgs, imtrans.SweepOptions{})
		if err != nil {
			return nil, err
		}
		for _, b := range bs {
			v.Benchmarks = append(v.Benchmarks, b.Name)
		}
		v.Measurements, v.Done = res.Measurements, res.Done
		for _, e := range res.Errors {
			v.Errors = append(v.Errors, e.Error())
		}
		return json.Marshal(v)
	default:
		var cr server.CompareRequest
		if err := json.Unmarshal(req.Body, &cr); err != nil {
			return nil, err
		}
		bs, err := resolve(cr.Benchmarks)
		if err != nil {
			return nil, err
		}
		var specs []imtrans.SchemeSpec
		for _, sc := range cr.Schemes {
			specs = append(specs, sc.SchemeSpec())
		}
		res, err := imtrans.CompareMeasureCtx(ctx, bs, specs, imtrans.SweepOptions{})
		if err != nil {
			return nil, err
		}
		v := server.CompareResponse{Benchmarks: res.Benchmarks, Schemes: res.Schemes, Results: res.Results, Done: res.Done, Rankings: res.Rankings}
		for i := range res.Errors {
			v.Errors = append(v.Errors, res.Errors[i].Error())
		}
		return json.Marshal(v)
	}
}

// checkJob compares a job's result with the same sweep run in process.
func checkJob(sp jobs.Spec, body []byte) error {
	var got jobs.Result
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	var bs []imtrans.Benchmark
	for _, ref := range sp.Benchmarks {
		b, err := imtrans.BenchmarkByName(ref.Name)
		if err != nil {
			return err
		}
		bs = append(bs, b.WithScale(ref.N, ref.Iters))
	}
	var cfgs []imtrans.Config
	for _, c := range sp.Configs {
		cfgs = append(cfgs, c.Config())
	}
	res, err := imtrans.SweepMeasureCtx(context.Background(), bs, cfgs, imtrans.SweepOptions{})
	if err != nil {
		return err
	}
	a, err := json.Marshal(got.Measurements)
	if err != nil {
		return err
	}
	b, err := json.Marshal(res.Measurements)
	if err != nil {
		return err
	}
	if !bytes.Equal(a, b) || len(got.Errors) > 0 {
		return fmt.Errorf("result differs from the in-process sweep")
	}
	return nil
}
