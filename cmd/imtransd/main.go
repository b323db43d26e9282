// Command imtransd serves the instruction-memory power-encoding toolkit
// over HTTP/JSON: POST /v1/encode plans encodings, POST /v1/measure
// evaluates configuration grids through the supervised sweep engine,
// POST /v1/deploy packages CRC-sealed deployment artifacts, and
// GET /v1/benchmarks lists the built-in kernels. GET /metrics exposes
// Prometheus-style telemetry; GET /healthz and /readyz gate
// orchestration. SIGINT/SIGTERM drain gracefully: in-flight requests
// complete, queued ones are released with 503, then the listener closes.
//
// With -jobs.dir set the daemon also serves the durable async job API
// (POST/GET/DELETE /v1/jobs...): sweeps submitted as jobs are journalled
// to the store and survive any interruption — a restart recovers and
// resumes them bit-identically. The -chaos.* flags arm a deterministic
// crash harness (the daemon SIGKILLs itself after a seeded delay) so CI
// can prove exactly that.
//
// With -store.dir set the daemon keeps the response bodies of its result
// cache in a persistent content-addressed store: verified (CRC + digest)
// on every read, scrubbed in the background, and served again after a
// restart. Captures are not stored; a restarted daemon profiles each
// program again on first use.
//
// Usage:
//
//	imtransd [-addr :8080] [-workers N] [-queue N] [-timeout 120s]
//	         [-cache N] [-rate-rps N] [-rate-burst N] [-drain 30s]
//	         [-parallelism N] [-jobs.dir DIR] [-jobs.max N]
//	         [-jobs.deadline 1h] [-jobs.fsync] [-store.dir DIR]
//	         [-store.max-bytes N] [-store.fsync] [-store.scrub 10m]
//	         [-chaos.killafter D] [-chaos.seed N] [-chaos.jitter F]
//	         [-cpuprofile FILE] [-memprofile FILE] [-version]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"imtrans"
	"imtrans/internal/buildinfo"
	"imtrans/internal/prof"
	"imtrans/internal/server"
)

func main() {
	fs := flag.NewFlagSet("imtransd", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 0, "concurrent request executions (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 0, "admission queue depth before shedding 429s (0 = 64)")
	timeout := fs.Duration("timeout", 0, "per-request deadline (0 = 120s)")
	cache := fs.Int("cache", 0, "result-cache entries (0 = 256)")
	rateRPS := fs.Float64("rate-rps", 0, "token-bucket admission rate in requests/sec (0 = unlimited)")
	rateBurst := fs.Int("rate-burst", 0, "token-bucket burst (0 = rate)")
	drain := fs.Duration("drain", 30*time.Second, "graceful-drain bound after SIGINT/SIGTERM")
	parallelism := fs.Int("parallelism", 0, "measurement-pipeline worker bound (0 = keep default)")
	captureCache := fs.Int("capture-cache", 0, "fetch-trace capture cache entries (0 = keep default)")
	jobsDir := fs.String("jobs.dir", "", "durable job store directory (empty = async job API disabled)")
	jobsMax := fs.Int("jobs.max", 0, "concurrently executing jobs (0 = 1)")
	jobsParallelism := fs.Int("jobs.parallelism", 0, "per-job sweep worker bound (0 = GOMAXPROCS)")
	jobDeadline := fs.Duration("jobs.deadline", 0, "default per-job deadline (0 = 1h)")
	jobsFsync := fs.Bool("jobs.fsync", true, "fsync job records and checkpoint journals (power-fail durability)")
	storeDir := fs.String("store.dir", "", "persistent content-addressed store of response bodies (empty = disabled)")
	storeMaxBytes := fs.Int64("store.max-bytes", 0, "store byte budget before LRU eviction (0 = unbounded)")
	storeFsync := fs.Bool("store.fsync", false, "fsync store writes (power-fail durability)")
	storeScrub := fs.Duration("store.scrub", 0, "background store-scrub interval (0 = 10m)")
	chaosKill := fs.Duration("chaos.killafter", 0, "chaos harness: SIGKILL this process after roughly this long (0 = off)")
	chaosSeed := fs.Int64("chaos.seed", 1, "chaos harness seed (same seed, same kill time)")
	chaosJitter := fs.Float64("chaos.jitter", 0.5, "chaos kill-time jitter fraction in [0,1]")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the daemon's lifetime to this file (finalised at drain)")
	memprofile := fs.String("memprofile", "", "write a heap profile (after a final GC) to this file at drain")
	version := fs.Bool("version", false, "print the build identity and exit")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if *version {
		fmt.Println(buildinfo.String("imtransd"))
		return
	}
	log.SetPrefix("imtransd: ")
	log.SetFlags(log.LstdFlags | log.Lmsgprefix)

	// Profiles cover the daemon's whole service window and are finalised
	// after the graceful drain, so a SIGTERM-ended run under load yields a
	// complete capture — the pipeline behind the repo's default.pgo.
	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		log.Fatal(err)
	}

	if *parallelism > 0 {
		imtrans.SetParallelism(*parallelism)
	}
	if *captureCache > 0 {
		imtrans.SetCaptureCacheLimit(*captureCache)
	}

	srv, err := server.New(server.Config{
		Workers:            *workers,
		QueueDepth:         *queue,
		RequestTimeout:     *timeout,
		CacheEntries:       *cache,
		RateLimit:          *rateRPS,
		RateBurst:          *rateBurst,
		JobsDir:            *jobsDir,
		JobsMaxConcurrent:  *jobsMax,
		JobsParallelism:    *jobsParallelism,
		JobDeadline:        *jobDeadline,
		JobsFsync:          *jobsFsync,
		StoreDir:           *storeDir,
		StoreMaxBytes:      *storeMaxBytes,
		StoreFsync:         *storeFsync,
		StoreScrubInterval: *storeScrub,
	})
	if err != nil {
		log.Fatal(err)
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("%s", buildinfo.String("imtransd"))
	log.Printf("listening on %s", l.Addr())
	if *jobsDir != "" {
		log.Printf("durable job store at %s (fsync=%v)", *jobsDir, *jobsFsync)
	}
	if *storeDir != "" {
		log.Printf("response store at %s (fsync=%v)", *storeDir, *storeFsync)
	}

	if *chaosKill > 0 {
		// Chaos harness: kill this process the hard way after a seeded,
		// jittered delay — the fault package's discipline (same seed, same
		// fault) applied to the daemon's own lifetime. SIGKILL, not
		// SIGTERM: no drain, no checkpoint flush, no goodbye. Whatever the
		// job store holds at that instant is what recovery gets.
		j := *chaosJitter
		if j < 0 {
			j = 0
		}
		if j > 1 {
			j = 1
		}
		rnd := rand.New(rand.NewSource(*chaosSeed))
		delay := time.Duration(float64(*chaosKill) * (1 + j*(2*rnd.Float64()-1)))
		log.Printf("chaos: armed, SIGKILL in %s (seed %d, jitter %g)", delay, *chaosSeed, j)
		go func() {
			time.Sleep(delay)
			syscall.Kill(os.Getpid(), syscall.SIGKILL)
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(l) }()

	select {
	case err := <-errc:
		log.Fatalf("serve: %v", err)
	case <-ctx.Done():
	}
	stop()
	log.Printf("draining (up to %s): in-flight requests complete, queued get 503", *drain)
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		log.Fatalf("drain: %v", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("serve: %v", err)
	}
	if err := stopProf(); err != nil {
		log.Fatalf("profile: %v", err)
	}
	log.Printf("drained cleanly")
}
