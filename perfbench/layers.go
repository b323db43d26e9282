package main

import (
	"fmt"
	"strings"
	"time"

	"imtrans/internal/replay"
)

// layerDef is one per-layer metric of the traced run.
type layerDef struct{ name, unit string }

// layerDefs lists every per-layer metric a traced run reports, on every
// workload; a layer the workload does not exercise reads 0. METRICS.md
// says which end-to-end metric each should move.
var layerDefs = []layerDef{
	{"asm.assemble_ms", "ms"},
	{"cpu.busy_s", "s"},
	{"cpu.instructions", "count"},
	{"cpu.minst_per_s", "Minst/s"},
	{"replay.fold_s", "s"},
	{"replay.trace_ops", "count"},
	{"replay.fetches_per_op", "fetches/op"},
	{"replay.capture_misses", "count"},
	{"capture.comparators_s", "s"},
	{"cfg.build_ms", "ms"},
	{"grid.capture_wall_s", "s"},
	{"grid.capture_idle_share", "fraction"},
	{"code.tables_built", "count"},
	{"code.table_build_ms", "ms"},
	{"core.encodes", "count"},
	{"core.encode_us", "us"},
	{"core.verify_us", "us"},
	{"core.blocks_planned", "count"},
	{"hw.decoder_build_us", "us"},
	{"replay.measure_us", "us"},
	{"replay.memo_blocks", "count"},
	{"replay.memo_hits", "count"},
	{"replay.memo_shared", "count"},
	{"replay.memo_hit_ratio", "fraction"},
	{"scheme.stream_build_ms", "ms"},
	{"scheme.fleet_memo_hits", "count"},
	{"scheme.businvert_us", "us"},
	{"scheme.codebook_us", "us"},
	{"scheme.dictionary_us", "us"},
	{"scheme.gray_us", "us"},
	{"scheme.lwc_us", "us"},
	{"scheme.t0_us", "us"},
	{"scheme.paper_us", "us"},
	{"grid.sweep_idle_share", "fraction"},
	{"grid.compare_idle_share", "fraction"},
	{"grid.cell_p99_us", "us"},
	{"grid.parallel_speedup", "x"},
	{"server.encode_exec_ms", "ms"},
	{"server.measure_exec_ms", "ms"},
	{"server.compare_exec_ms", "ms"},
	{"server.http_overhead_ms", "ms"},
	{"server.cache_hit_ratio", "fraction"},
	{"server.shed", "count"},
	{"server.resp_kb", "KB"},
	{"loadgen.p50_ms", "ms"},
	{"loadgen.p99_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"jobs.queue_wait_s", "s"},
	{"jobs.run_s", "s"},
	{"checkpoint.records", "count"},
	{"checkpoint.record_ms", "ms"},
	{"checkpoint.bytes_written", "bytes"},
	{"checkpoint.resume_ms", "ms"},
	{"cas.put_ms", "ms"},
	{"cas.get_ms", "ms"},
	{"cas.bytes", "bytes"},
	{"trace.capture_share", "fraction"},
	{"trace.encode_replay_share", "fraction"},
	{"trace.overhead_share", "fraction"},
}

// tally accumulates the work counts of a serial traced pass.
type tally struct {
	instructions, traceOps, fetches uint64
	blocksPlanned                   int
	memoBlocks, memoShared          int
	memoHits, fleetMemoHits         uint64
}

// noteCapture adds one capture's work to the run's tally.
func noteCapture(r *run, cap *replay.Capture) {
	r.tally.instructions += cap.Instructions
	r.tally.fetches += cap.Trace.N
	r.tally.traceOps += uint64(cap.Trace.NumOps())
}

// noteCell adds one paper cell's work to the run's tally.
func noteCell(r *run, pc paperCell) {
	r.tally.blocksPlanned += pc.plans
	r.tally.memoBlocks += pc.rep.MemoBlocks
	r.tally.memoHits += pc.rep.MemoHits
	r.tally.memoShared += pc.rep.MemoShared
}

// layers fills the per-layer metrics of a run.
type layers struct{ r *run }

func (l layers) set(name string, v float64) {
	for _, d := range layerDefs {
		if d.name == name {
			l.r.set(name, d.unit, v)
			return
		}
	}
	panic(fmt.Sprintf("perfbench: per-layer metric %q is not in layerDefs", name))
}

// layerMetrics starts the per-layer metrics of a traced run: every metric
// at zero, then the ones the spans and the tally give.
func layerMetrics(r *run, tr *tracer) layers {
	l := layers{r}
	for _, d := range layerDefs {
		l.set(d.name, 0)
	}
	self, count := tr.layerTimes(0, len(tr.spans))
	t := &r.tally
	mean := func(name string) float64 {
		if count[name] == 0 {
			return 0
		}
		return float64(self[name].Microseconds()) / float64(count[name])
	}
	l.set("asm.assemble_ms", ms(self["asm.assemble"]))
	l.set("cpu.busy_s", seconds(self["cpu.run"]))
	l.set("cpu.instructions", float64(t.instructions))
	if busy := seconds(self["cpu.run"]); busy > 0 {
		l.set("cpu.minst_per_s", float64(t.instructions)/busy/1e6)
	}
	l.set("replay.fold_s", seconds(self["replay.fold"]))
	l.set("replay.trace_ops", float64(t.traceOps))
	if t.traceOps > 0 {
		l.set("replay.fetches_per_op", float64(t.fetches)/float64(t.traceOps))
	}
	l.set("capture.comparators_s", seconds(self["capture.comparators"]))
	l.set("cfg.build_ms", ms(self["cfg.build"]))
	l.set("code.tables_built", float64(count["code.table"]))
	l.set("code.table_build_ms", ms(self["code.table"]))
	l.set("core.encodes", float64(count["core.encode"]))
	l.set("core.encode_us", mean("core.encode"))
	l.set("core.verify_us", mean("core.verify"))
	l.set("core.blocks_planned", float64(t.blocksPlanned))
	l.set("hw.decoder_build_us", mean("hw.decoder"))
	l.set("replay.measure_us", mean("replay.measure"))
	l.set("replay.memo_blocks", float64(t.memoBlocks))
	l.set("replay.memo_hits", float64(t.memoHits))
	l.set("replay.memo_shared", float64(t.memoShared))
	if n := float64(t.memoHits) + float64(t.memoBlocks); n > 0 {
		l.set("replay.memo_hit_ratio", float64(t.memoHits)/n)
	}
	l.set("scheme.stream_build_ms", ms(self["scheme.stream"]))
	l.set("scheme.fleet_memo_hits", float64(t.fleetMemoHits))
	for _, name := range schemeNames {
		l.set("scheme."+name+"_us", mean("scheme."+name))
	}
	return l
}

// phaseSplit is how one traced phase's self time splits: capture (cpu,
// fold, comparators), encode+replay (core, hw, replay measure, scheme), and
// the cpu alone.
type phaseSplit struct{ capture, encode, cpu time.Duration }

// split sums the self times of the spans with index in [from, to).
func split(tr *tracer, from, to int) phaseSplit {
	self, _ := tr.layerTimes(from, to)
	var p phaseSplit
	for name, d := range self {
		switch {
		case name == "cpu.run" || name == "replay.fold" || name == "capture.comparators":
			p.capture += d
		case strings.HasPrefix(name, "core.") || name == "hw.decoder" || name == "replay.measure" || strings.HasPrefix(name, "scheme."):
			p.encode += d
		}
	}
	p.cpu = self["cpu.run"]
	return p
}

// schemeNames are the registered encoding schemes, each with its own
// per-cell time metric.
var schemeNames = []string{"businvert", "codebook", "dictionary", "gray", "lwc", "t0", "paper"}
