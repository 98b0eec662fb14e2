// Command vcbench is the repository benchmark: it drives the verifier's
// public API from an open-loop 10 Hz call generator, prints end-to-end
// and per-layer metrics for one workload, and checks every verdict it
// compares against the batch reference. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"

	"repro/internal/obs"
)

const setupRepeats = 3 // set-ups per run; setup_s is their median

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "live", "workload: live, longcall or churn")
	seed := flag.Int64("seed", 1, "seed for every input of the run")
	seconds := flag.Int("seconds", 10, "length of the timed phase in seconds (at least 2)")
	traceFlag := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 2 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "vcbench: bad arguments: workload %q, seconds %d, trace %d\n", *name, *seconds, *traceFlag)
		return 2
	}
	traced := *traceFlag == 1
	workers := runtime.NumCPU()
	runtime.GOMAXPROCS(workers)
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "vcbench: %v\n", err)
		return 2
	}
	runDir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "vcbench: %v\n", err)
		return 2
	}
	defer os.RemoveAll(runDir)

	genStart := time.Now()
	in, err := genInputs(w, *seed, workers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vcbench: %v\n", err)
		return 2
	}
	b, err := newBench(w, *seed, *seconds, workers, in)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vcbench: %v\n", err)
		return 2
	}
	fmt.Printf("workload %s seed %d: %d calls planned, inputs simulated in %.1fs, %d workers\n",
		w.name, *seed, len(b.sess), time.Since(genStart).Seconds(), workers)

	// Heap baseline: inputs, plan and verdict records exist, no session yet.
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	heapBase := ms.HeapInuse
	hops0 := counter("guard_stream_hops_total")

	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		d, err := b.setup()
		if err != nil {
			fmt.Fprintf(os.Stderr, "vcbench: %v\n", err)
			return 2
		}
		setups = append(setups, d.Seconds())
	}
	runtime.GC()

	horizon := time.Duration(*seconds) * time.Second
	t0 := time.Now().Add(50 * time.Millisecond)
	var timed, tracedPh *phase
	var storeA, storeB map[string]int64
	if !traced {
		timed = b.runPhase(t0, 0, horizon, false)
	} else {
		timed = b.runPhase(t0, 0, horizon/2, false)
		storeA = storeSnapshot()
		tracedPh = b.runPhase(t0, horizon/2, horizon, true)
		storeB = storeSnapshot()
	}

	// The timed checkpoints' buffers are the benchmark's, not session state.
	for i := range b.ckptBuf {
		b.ckptBuf[i] = bytes.Buffer{}
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	open := 0
	for _, s := range b.sess {
		if s.sd != nil || s.parked {
			open++
		}
	}
	heapKB := (float64(ms.HeapInuse) - float64(heapBase)) / 1024 / float64(open)

	endTr := &tracer{on: traced, org: b.org}
	end := b.endPhase(endTr, runDir)
	checked, mismatches, notes, verr := b.verifyAll()
	counted := b.retired
	for _, s := range b.sess {
		counted += s.hops
	}
	judged := counter("guard_stream_hops_total") - hops0

	// Operations and failures.
	var errs []string
	attempted, failed := end.ops, mismatches+end.lost
	phases := []*phase{timed}
	if tracedPh != nil {
		phases = append(phases, tracedPh)
	}
	for _, ph := range phases {
		a := ph.merge()
		attempted += a.ops
		failed += a.late + len(a.errs)
		errs = append(errs, a.errs...)
	}
	failed += len(end.errs)
	errs = append(errs, end.errs...)
	errs = append(errs, notes...)
	if verr != nil {
		failed++
		errs = append(errs, verr.Error())
	}
	if int64(counted) != judged {
		failed++
		errs = append(errs, fmt.Sprintf("guard_stream_hops_total moved by %d, benchmark counted %d hops", judged, counted))
	}
	fmt.Printf("correctness: %d calls compared with DetectStreamBatch, %d mismatching hops; guard_stream_hops_total %d, counted %d\n",
		checked, mismatches, judged, counted)
	for _, e := range errs {
		fmt.Printf("  error: %s\n", e)
	}

	a := timed.merge()
	fmt.Printf("open loop: gen lag p99 %.1f us, backlog max %d, backlog growth %.2f over %d inputs; %d GC cycles, %.1f ms GC pause\n",
		a.lagP99(), a.backlogMax(), a.backlogGrowth(timed.from, timed.to), a.samples,
		timed.mem1.NumGC-timed.mem0.NumGC, float64(timed.mem1.PauseTotalNs-timed.mem0.PauseTotalNs)/1e6)
	if growth := a.backlogGrowth(timed.from, timed.to); growth > max(2, a.backlogFirst(timed.from, timed.to)) {
		fmt.Printf("OVERLOADED: backlog grew by %.1f inputs during the timed phase; no latency is reported\n", growth)
		return 3
	}
	fmt.Print("verdict latency:")
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
		v, _ := percentile(a.lat, q)
		fmt.Printf(" p%g %.0f us", 100*q, v)
	}
	fmt.Println()
	p50, _ := percentile(a.lat, 0.5)
	p99, perr := tailPercentile(a.lat, 0.99)
	if perr != nil {
		failed++
		fmt.Printf("  error: verdict latency %v\n", perr)
	}
	e2e := []metric{
		{"verdict_latency_p50_us", p50, "us", fmt.Sprintf("n=%d verdicts", len(a.lat))},
		{"verdict_latency_p99_us", p99, "us", fmt.Sprintf("n=%d verdicts, %d beyond, max %.0f us", len(a.lat), len(a.lat)-int(0.99*float64(len(a.lat))+0.999999), a.latMax())},
		{"capacity_calls_per_core", capacityPerCore(a.samples, timed.cpu), "calls", fmt.Sprintf("%.1f call-s over %.3f CPU-s", float64(a.samples)/sampleHz, timed.cpu.Seconds())},
		{"heap_kb_per_call", heapKB, "KB", fmt.Sprintf("%d open calls", open)},
		{"state_bytes_per_call", float64(end.stateBytes) / float64(end.sessions), "bytes", fmt.Sprintf("%d calls checkpointed", end.sessions)},
		{"checkpoint_ms", slices.Min(end.ckptMs), "ms", fmt.Sprintf("CPU time, fastest of %d, median %.2f ms; wall median %.2f ms", len(end.ckptMs), median(end.ckptMs), median(end.ckptWallMs))},
		{"failover_recovery_ms", slices.Min(end.failMs), "ms", fmt.Sprintf("CPU time, fastest of %d, median %.2f ms, %d sessions recovered; wall median %.2f ms", len(end.failMs), median(end.failMs), end.recovered, median(end.failWallMs))},
		{"setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups", len(setups))},
		{"failed_ops_ratio", float64(failed) / float64(attempted), "ratio", fmt.Sprintf("%d of %d", failed, attempted)},
	}
	// Printed, not reported: the p99 spread across seeds is set by the
	// host (see README.md), and failed_ops_ratio is 0 on a correct run,
	// which the result's attempted and failed already carry.
	var out []metric
	for _, m := range e2e {
		if m.name != "verdict_latency_p99_us" && m.name != "failed_ops_ratio" {
			out = append(out, m)
		}
	}
	if traced {
		layers, err := b.perLayer(timed, tracedPh, end, endTr, storeA, storeB)
		if err != nil {
			failed++
			fmt.Printf("  error: per-layer: %v\n", err)
		}
		out = layers
		path := fmt.Sprintf("%s/spans-%s-seed%d.jsonl", buildDir, w.name, *seed)
		tracers := []*tracer{endTr}
		for _, ws := range tracedPh.ws {
			tracers = append(tracers, ws.tr)
		}
		if err := writeSpans(path, tracers); err != nil {
			fmt.Printf("  error: %v\n", err)
			failed++
		}
		printSelfTimes(tracers)
		fmt.Printf("spans written to %s\n", path)
	}
	fmt.Println("end-to-end:")
	for _, m := range e2e {
		fmt.Printf("  %-26s %14.4f %-6s %s\n", m.name, m.value, m.unit, m.note)
	}
	if traced {
		fmt.Println("per-layer:")
		for _, m := range out {
			fmt.Printf("  %-44s %16.4f %-10s %s\n", m.name, m.value, m.unit, m.note)
		}
	}
	res := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{failed == 0, attempted, failed, map[string]metricValue{}}
	for _, m := range out {
		res.Metrics[m.name] = metricValue{m.value, m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vcbench: %v\n", err)
		return 2
	}
	fmt.Println(string(line))
	if failed > 0 {
		return 1
	}
	return 0
}

// buildDir is where runs leave scratch files, relative to the checkout.
const buildDir = ".bench_build"

type metric struct {
	name  string
	value float64
	unit  string
	note  string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// counter reads one counter from the program's own metrics registry.
func counter(name string) int64 {
	v, _ := obs.Default.TakeSnapshot(false).Counter(name)
	return v
}

// storeSnapshot reads the session-store counters the per-layer metrics
// are deltas of.
func storeSnapshot() map[string]int64 {
	snap := obs.Default.TakeSnapshot(false)
	out := map[string]int64{}
	for _, n := range []string{"sessionstore_demotions_total", "sessionstore_rehydrations_total", "sessionstore_pressure_refusals_total"} {
		out[n], _ = snap.Counter(n)
	}
	return out
}

// printSelfTimes prints each span name's total self time.
func printSelfTimes(tracers []*tracer) {
	total := map[string]time.Duration{}
	for _, t := range tracers {
		for name, d := range selfTimes(t.spans) {
			total[name] += d
		}
	}
	names := make([]string, 0, len(total))
	for n := range total {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Println("self time by span (traced phase and end phase):")
	for _, n := range names {
		fmt.Printf("  %-26s %10.3f ms\n", n, float64(total[n])/float64(time.Millisecond))
	}
}

// agg is a phase's worker measurements merged.
type agg struct {
	lat                                      []float64 // sorted
	lag                                      []float64 // sorted
	backlog                                  []bpoint
	late, samples, verdicts, conclusive, ops int
	errs                                     []string
}

func (ph *phase) merge() agg {
	var a agg
	for _, w := range ph.ws {
		a.lat = append(a.lat, w.lat...)
		a.lag = append(a.lag, w.lag...)
		a.backlog = append(a.backlog, w.backlog...)
		a.late += w.late
		a.samples += w.samples
		a.verdicts += w.verdicts
		a.conclusive += w.conclusive
		a.ops += w.ops
		a.errs = append(a.errs, w.errs...)
	}
	a.lat, a.lag = sortedCopy(a.lat), sortedCopy(a.lag)
	return a
}

func (a agg) lagP99() float64 {
	v, _ := percentile(a.lag, 0.99)
	return v
}

func (a agg) latMax() float64 {
	if len(a.lat) == 0 {
		return 0
	}
	return a.lat[len(a.lat)-1]
}

func (a agg) backlogMax() int {
	m := 0
	for _, p := range a.backlog {
		if p.n > m {
			m = p.n
		}
	}
	return m
}

// backlogTenth is the mean backlog over the inputs due in one tenth of
// the phase: the first (last=false) or the last.
func (a agg) backlogTenth(from, to time.Duration, last bool) float64 {
	tenth := (to - from) / 10
	lo, hi := from, from+tenth
	if last {
		lo, hi = to-tenth, to
	}
	var sum, n float64
	for _, p := range a.backlog {
		if p.at >= lo && p.at < hi {
			sum += float64(p.n)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

func (a agg) backlogFirst(from, to time.Duration) float64 { return a.backlogTenth(from, to, false) }

// backlogGrowth is the mean backlog of the phase's last tenth minus that
// of its first tenth; an open loop that keeps up holds it near zero.
func (a agg) backlogGrowth(from, to time.Duration) float64 {
	return a.backlogTenth(from, to, true) - a.backlogTenth(from, to, false)
}
