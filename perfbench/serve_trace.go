package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"imtrans/internal/cas"
	"imtrans/internal/checkpoint"
	"imtrans/internal/jobs"
)

// serveTraced runs the session twice, each time on a fresh daemon: once
// untraced, then once with client spans per request (due, sent, response),
// /metrics scrapes before and after, and job state times from the polled
// records. The first job's cells are then replayed through the checkpoint
// journal and the content-addressed store the daemon writes them to.
func serveTraced(o options, r *run, t traffic, dir string) error {
	d, _, err := setupDaemon(o, filepath.Join(dir, "untraced"))
	if err != nil {
		return err
	}
	plain, err := runSession(d, t, false)
	if _, stopErr := d.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return err
	}
	checkSession(r, t, plain)

	d, _, err = setupDaemon(o, filepath.Join(dir, "traced"))
	if err != nil {
		return err
	}
	s, err := runSession(d, t, true)
	if _, stopErr := d.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return err
	}
	checkSession(r, t, s)

	tr := newTracer()
	var clientMS, respKB []float64
	for _, smp := range s.samples {
		id := fmt.Sprintf("request %d", smp.ID)
		tr.add("client.wait", -1, id, smp.Due, smp.Sent)
		tr.add("client.request", -1, id, smp.Sent, smp.Done)
		clientMS = append(clientMS, ms(smp.Done-smp.Sent))
		respKB = append(respKB, float64(len(smp.Body))/1024)
	}
	var wait, runS []float64
	for _, jr := range s.jobs {
		tr.add("job.queued", -1, jr.id, jr.submitted, jr.running)
		tr.add("job.running", -1, jr.id, jr.running, jr.end)
		wait = append(wait, seconds(jr.running-jr.submitted))
		runS = append(runS, seconds(jr.end-jr.running))
	}

	l := layerMetrics(r, tr)
	delta := func(series string) float64 { return s.after[series] - s.before[series] }
	var srvSum, srvN float64
	for _, ep := range []string{"encode", "measure", "compare"} {
		n := delta(fmt.Sprintf(`imtransd_request_duration_seconds_count{endpoint=%q}`, ep))
		sec := delta(fmt.Sprintf(`imtransd_request_duration_seconds_sum{endpoint=%q}`, ep))
		if n > 0 {
			l.set("server."+ep+"_exec_ms", 1000*sec/n)
		}
		srvSum, srvN = srvSum+sec, srvN+n
	}
	if srvN > 0 {
		l.set("server.http_overhead_ms", sum(clientMS)/float64(len(clientMS))-1000*srvSum/srvN)
	}
	served := delta("imtransd_cache_hits_total") + delta("imtransd_singleflight_shared_total") + delta("imtransd_cache_tier_hits_total")
	if all := served + delta("imtransd_cache_misses_total"); all > 0 {
		l.set("server.cache_hit_ratio", served/all)
	}
	shed := 0.0
	for series := range s.after {
		if strings.HasPrefix(series, "imtransd_shed_total") {
			shed += delta(series)
		}
	}
	l.set("server.shed", shed)
	l.set("server.resp_kb", sum(respKB)/float64(len(respKB)))
	sm := summarize(s.samples, ms(requestLimit))
	l.set("loadgen.p50_ms", sm.P50MS)
	l.set("loadgen.p99_ms", sm.P99MS)
	l.set("loadgen.late_p99_ms", sm.LateP99MS)
	l.set("jobs.queue_wait_s", median(wait))
	l.set("jobs.run_s", median(runS))
	if err := journalReplay(l, filepath.Join(dir, "replay"), s.jobs[0]); err != nil {
		return err
	}
	l.set("trace.overhead_share", seconds(s.wall)/seconds(plain.wall)-1)
	r.detail["untraced_session_s"] = seconds(plain.wall)
	r.detail["traced_session_s"] = seconds(s.wall)
	return tr.write(filepath.Join(o.out, "spans", fmt.Sprintf("serve-mixed-seed%d.json", o.seed)))
}

// journalReplay writes one job's cells the way the daemon persists them —
// recorded one by one into a checkpoint journal with the daemon's fsync
// setting, and put into a content-addressed store — then resumes the
// journal and reads every blob back.
func journalReplay(l layers, dir string, jr jobRun) error {
	var res jobs.Result
	if err := json.Unmarshal(jr.result, &res); err != nil {
		return fmt.Errorf("job %s result: %w", jr.id, err)
	}
	if err := os.Mkdir(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "journal.json")
	j, _, err := checkpoint.Open(path, "perfbench "+jr.id, res.Benchmarks, res.Configs)
	if err != nil {
		return err
	}
	j.SetDurable(jobFsync)
	store, err := cas.Open(filepath.Join(dir, "store"), cas.Options{})
	if err != nil {
		return err
	}
	var record, put, getT time.Duration
	var written, blobBytes int64
	var keys []cas.Key
	for bi, row := range res.Measurements {
		for ci, m := range row {
			payload, err := json.Marshal(m)
			if err != nil {
				return err
			}
			start := time.Now()
			err = j.Record(bi, ci, payload)
			record += time.Since(start)
			if err != nil {
				return err
			}
			st, err := os.Stat(path)
			if err != nil {
				return err
			}
			written += st.Size()
			start = time.Now()
			k, err := store.Put(payload)
			put += time.Since(start)
			if err != nil {
				return err
			}
			keys = append(keys, k)
			blobBytes += int64(len(payload))
		}
	}
	start := time.Now()
	_, cells, err := checkpoint.Open(path, "perfbench "+jr.id, res.Benchmarks, res.Configs)
	resume := time.Since(start)
	if err != nil {
		return err
	}
	if len(cells) != len(keys) {
		return fmt.Errorf("journal resumed %d of %d cells", len(cells), len(keys))
	}
	for _, k := range keys {
		start := time.Now()
		_, err := store.Get(k)
		getT += time.Since(start)
		if err != nil {
			return err
		}
	}
	n := float64(len(keys))
	l.set("checkpoint.records", n)
	l.set("checkpoint.record_ms", ms(record)/n)
	l.set("checkpoint.bytes_written", float64(written))
	l.set("checkpoint.resume_ms", ms(resume))
	l.set("cas.put_ms", ms(put)/n)
	l.set("cas.get_ms", ms(getT)/n)
	l.set("cas.bytes", float64(blobBytes))
	return nil
}
