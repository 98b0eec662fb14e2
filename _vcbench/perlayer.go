package main

import (
	"fmt"
	"math"
	"time"
)

// spanDurs collects the durations of the named spans, in unit; verd
// filters guard.push spans by whether they returned a hop result.
func spanDurs(tracers []*tracer, name string, unit time.Duration, verd *bool) []float64 {
	var out []float64
	for _, t := range tracers {
		for _, s := range t.spans {
			if s.Name == name && (verd == nil || s.Verd == *verd) {
				out = append(out, float64(s.dur())/float64(unit))
			}
		}
	}
	return sortedCopy(out)
}

// pct is percentile without the ten-beyond rule: per-layer figures are
// reported with their sample counts instead.
func pct(xs []float64, q float64) float64 {
	v, _ := percentile(xs, q)
	return v
}

// putsDuringCheckpoint returns, in µs, the parks of segments that came
// due while a timed checkpoint held their store, each from that due
// instant to the park's return. Such a segment waits for the checkpoint,
// queued behind it on its instance's worker or blocked on the store's
// mutex on another worker of the instance.
func putsDuringCheckpoint(ws []*wstats) []float64 {
	var ckpts []ckptWin
	for _, w := range ws {
		ckpts = append(ckpts, w.ckpts...)
	}
	var out []float64
	for _, w := range ws {
		for _, p := range w.parks {
			for _, c := range ckpts {
				if p.store == c.store && !p.due.Before(c.due) && p.due.Before(c.end) {
					out = append(out, us(p.end.Sub(p.due)))
					break
				}
			}
		}
	}
	return sortedCopy(out)
}

// perLayer computes the per-layer metrics of a traced run: spans and
// counters from the traced phase (B) and the end phase, the stage
// replay, and phase A for the tracing overhead.
func (b *bench) perLayer(untraced, ph *phase, end *endResult, endTr *tracer, store0, storeB map[string]int64) ([]metric, error) {
	var work []*tracer
	for _, w := range ph.ws {
		work = append(work, w.tr)
	}
	all := append(append([]*tracer(nil), work...), endTr)
	a, u := ph.merge(), untraced.merge()
	no, yes := false, true
	hopUs := spanDurs(work, "guard.push", time.Microsecond, &yes)
	pushNs := spanDurs(work, "guard.push", time.Nanosecond, &no)
	sc, err := b.replayStages()
	stagesNs := 2*sc.chainNsPerSample + sc.peaksNs + sc.extractNs + sc.lofNs

	store1 := storeSnapshot()
	// The hot-hit ratio covers the traced phase's takes; live has none
	// there, so its ratio covers the end phase's takes on the survivor.
	takes := spanDurs(work, "sessionstore.take", time.Microsecond, nil)
	warmTakes := storeB["sessionstore_rehydrations_total"] - store0["sessionstore_rehydrations_total"]
	if len(takes) == 0 {
		takes = spanDurs([]*tracer{endTr}, "sessionstore.take", time.Microsecond, nil)
		warmTakes = store1["sessionstore_rehydrations_total"] - storeB["sessionstore_rehydrations_total"]
	}
	hotHit := float64(int64(len(takes))-warmTakes) / float64(len(takes))
	allTakes := spanDurs(all, "sessionstore.take", time.Microsecond, nil)
	puts := spanDurs(all, "sessionstore.put", time.Microsecond, nil)
	ckptPuts := putsDuringCheckpoint(ph.ws)

	callSec := float64(a.samples) / sampleHz
	cpuPerCallSec := ph.cpu.Seconds() / callSec
	overhead := cpuPerCallSec/(untraced.cpu.Seconds()/(float64(u.samples)/sampleHz)) - 1
	hops := float64(a.verdicts)
	m0, m1 := &ph.mem0, &ph.mem1

	ms := []metric{
		{"guard.push_ns_per_sample", mean(pushNs), "ns", fmt.Sprintf("%d pushes without a verdict", len(pushNs))},
		{"guard.hop_us_p50", pct(hopUs, 0.5), "us", fmt.Sprintf("%d pushes with a verdict", len(hopUs))},
		{"guard.hop_us_p99", pct(hopUs, 0.99), "us", ""},
		{"guard.allocs_per_hop", float64(m1.Mallocs-m0.Mallocs) / hops, "count", "all allocations of the traced phase / hops"},
		{"guard.bytes_per_hop", float64(m1.TotalAlloc-m0.TotalAlloc) / hops, "bytes", ""},
		{"guard.conclusive_ratio", float64(a.conclusive) / hops, "ratio", fmt.Sprintf("%d of %d hops", a.conclusive, a.verdicts)},
		{"preprocess.chain_ns_per_sample", sc.chainNsPerSample, "ns", "one StreamChain.Push"},
		{"dsp.find_peaks_ns_per_hop", sc.peaksNs, "ns", fmt.Sprintf("replay of %d hop windows", sc.hops)},
		{"features.extract_ns_per_hop", sc.extractNs, "ns", "DTW included"},
		{"dsp.dtw_banded_ns_per_hop", sc.dtwNs, "ns", "inside extract"},
		{"lof.score_ns_per_hop", sc.lofNs, "ns", ""},
		{"guard.judge_residual_ns_per_hop", pct(hopUs, 0.5)*1000 - stagesNs, "ns", "hop_us_p50 - (2 chain pushes + peaks + extract + lof)"},
		{"guard.export_us_p50", pct(spanDurs(all, "guard.export", time.Microsecond, nil), 0.5), "us", ""},
		{"guard.resume_us_p50", pct(spanDurs(all, "guard.resume", time.Microsecond, nil), 0.5), "us", ""},
		{"guard.state_json_bytes", mean(end.jsonBytes), "bytes", fmt.Sprintf("mean over %d parked calls", len(end.jsonBytes))},
		{"guard.new_detector_us_p50", pct(spanDurs(all, "guard.new", time.Microsecond, nil), 0.5), "us", ""},
		{"guard.finish_us_p50", pct(spanDurs(all, "guard.finish", time.Microsecond, nil), 0.5), "us", ""},
		{"sessionstore.put_us_p50", pct(puts, 0.5), "us", fmt.Sprintf("%d parks", len(puts))},
		{"sessionstore.put_us_p99", pct(puts, 0.99), "us", ""},
		{"sessionstore.take_us_p50", pct(allTakes, 0.5), "us", fmt.Sprintf("%d takes", len(allTakes))},
		{"sessionstore.take_us_p99", pct(allTakes, 0.99), "us", ""},
		{"sessionstore.hot_hit_ratio", hotHit, "ratio", fmt.Sprintf("%d warm of %d takes", warmTakes, len(takes))},
		{"sessionstore.demotions", float64(store1["sessionstore_demotions_total"] - store0["sessionstore_demotions_total"]), "count", ""},
		{"sessionstore.warm_bytes", float64(end.warmBytes), "bytes", "both stores, end phase"},
		{"sessionstore.checkpoint_bytes", float64(end.stateBytes), "bytes", "both stores, end phase"},
		{"sessionstore.pressure_refusals", float64(store1["sessionstore_pressure_refusals_total"] - store0["sessionstore_pressure_refusals_total"]), "count", ""},
		{"sessionstore.save_file_ms_p50", median(end.saveMs), "ms", "fsync included"},
		{"sessionstore.put_during_checkpoint_us_p50", pct(ckptPuts, 0.5), "us", fmt.Sprintf("%d parks came due during a checkpoint of their store", len(ckptPuts))},
		{"cluster.route_ns_p50", pct(spanDurs(all, "cluster.route", time.Nanosecond, nil), 0.5), "ns", ""},
		{"cluster.checkpoint_read_ms", end.readMs, "ms", ""},
		{"cluster.handoff_ms", pct(spanDurs(all, "cluster.handoff", time.Millisecond, nil), 0.5), "ms", ""},
		{"cluster.handoff_bytes", float64(end.handoffBytes.Load()) / float64(len(end.failMs)), "bytes", "per failover"},
		{"cluster.putblob_us_p50", pct(spanDurs(all, "cluster.putblob", time.Microsecond, nil), 0.5), "us", ""},
		{"cluster.recovered", float64(end.recovered), "count", ""},
		{"cluster.inconclusive", float64(end.inconclusive), "count", ""},
		{"runtime.cpu_s", ph.cpu.Seconds(), "s", "traced phase"},
		{"runtime.gc_cycles", float64(m1.NumGC - m0.NumGC), "count", ""},
		{"runtime.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6, "ms", ""},
		{"runtime.alloc_mb_per_callsec", float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6 / callSec, "MB/call-s", ""},
		{"bench.gen_lag_us_p99", a.lagP99(), "us", fmt.Sprintf("%d wake-ups", len(a.lag))},
		{"bench.backlog_max", float64(a.backlogMax()), "count", ""},
		{"bench.backlog_growth", a.backlogGrowth(ph.from, ph.to), "count", ""},
		{"bench.verdicts", hops, "count", ""},
		{"bench.late_verdicts", float64(a.late), "count", ""},
		{"bench.verdict_latency_p99_us", pct(u.lat, 0.99), "us", fmt.Sprintf("untraced half, %d verdicts", len(u.lat))},
		{"bench.trace_overhead_ratio", overhead, "ratio", "CPU per call-second, traced / untraced - 1"},
	}
	for i := range ms {
		if math.IsNaN(ms[i].value) || math.IsInf(ms[i].value, 0) {
			ms[i].value, ms[i].note = 0, "no samples; "+ms[i].note
		}
	}
	return ms, err
}
