package main

import (
	"math"
	"testing"
	"time"

	"repro/guard"
)

func TestPercentileTenBeyondRule(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, beyond := percentile(xs, 0.99)
	if v != 990 || beyond != 10 {
		t.Fatalf("p99 of 1..1000 = %v with %d beyond, want 990 with 10", v, beyond)
	}
	if v, _ := percentile(xs, 0.5); v != 500 {
		t.Fatalf("p50 of 1..1000 = %v, want 500", v)
	}
	if _, err := tailPercentile(xs, 0.99); err != nil {
		t.Fatalf("1000 samples: %v", err)
	}
	if _, err := tailPercentile(xs[:999], 0.99); err == nil {
		t.Fatal("999 samples leave 9 beyond p99; want an error")
	}
	if v, _ := percentile([]float64{7}, 0.99); v != 7 {
		t.Fatalf("p99 of one sample = %v", v)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

// A stall while serving one input must be charged to the inputs due
// behind it: their latency runs from their own due time, not from when
// the worker got to them.
func TestDriveChargesStallToLaterInputs(t *testing.T) {
	const stall = 30 * time.Millisecond
	dues := []time.Duration{0, time.Millisecond, 2 * time.Millisecond, 100 * time.Millisecond}
	st := &wstats{tr: &tracer{}}
	lat := make([]time.Duration, len(dues))
	t0 := time.Now().Add(5 * time.Millisecond)
	sc := schedule{n: len(dues), due: func(i int) time.Duration { return dues[i] }, size: func(int) int { return 1 }}
	drive(st, t0, sc, 0, time.Second, func(i int, due time.Time) {
		if !due.Equal(t0.Add(dues[i])) {
			t.Errorf("input %d served with due %v, scheduled %v", i, due.Sub(t0), dues[i])
		}
		if i == 0 {
			time.Sleep(stall)
		}
		lat[i] = time.Since(due)
	})
	if lat[1] < stall-dues[1] || lat[2] < stall-dues[2] {
		t.Fatalf("latencies %v do not include the %v stall", lat, stall)
	}
	if lat[3] >= stall {
		t.Fatalf("input due after the stall ended still charged: %v", lat[3])
	}
	if len(st.backlog) != 4 || st.backlog[1].n != 2 || st.backlog[0].n != 1 {
		t.Fatalf("backlog %v, want 1 at the first input and 2 after the stall", st.backlog)
	}
	if len(st.lag) < 2 {
		t.Fatalf("gen lag recorded %d wake-ups, want the first and the last", len(st.lag))
	}
}

func TestCapacityPerCore(t *testing.T) {
	// 1000 samples at 10 Hz is 100 call-seconds; over 2 CPU-seconds one
	// core carries 50 concurrent calls.
	if c := capacityPerCore(1000, 2*time.Second); c != 50 {
		t.Fatalf("capacity = %v, want 50", c)
	}
	if c := capacityPerCore(1000, 0); !math.IsNaN(c) {
		t.Fatalf("capacity with no CPU time = %v, want NaN", c)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	ms := time.Millisecond
	parent := span{Start: 0, End: 100 * ms}
	kids := []span{
		{Start: 10 * ms, End: 30 * ms},
		{Start: 20 * ms, End: 50 * ms},  // overlaps the first: covered once
		{Start: 90 * ms, End: 120 * ms}, // runs past the parent: clipped
		{Start: 40 * ms, End: 45 * ms},  // inside the union already
	}
	if got := selfTime(parent, kids); got != 50*ms {
		t.Fatalf("self time = %v, want 50ms", got)
	}
	if got := selfTime(parent, nil); got != 100*ms {
		t.Fatalf("self time without children = %v", got)
	}
	spans := []span{{Name: "a", ID: 1, Start: 0, End: 10 * ms}, {Name: "b", ID: 2, Parent: 1, Start: 2 * ms, End: 5 * ms}}
	if st := selfTimes(spans); st["a"] != 7*ms || st["b"] != 3*ms {
		t.Fatalf("selfTimes = %v", st)
	}
}

func TestComparatorCatchesOneULP(t *testing.T) {
	ref := guard.WindowResult{Verdict: guard.Verdict{Score: 1.25, Features: [4]float64{0.5, 0.75, 0.9, 0.1}}}
	same := recOf(3, &ref)
	if !sameResult(same, &ref) {
		t.Fatal("identical results compare unequal")
	}
	up := func(x float64) float64 { return math.Nextafter(x, math.Inf(1)) }
	bumped := same
	bumped.score = up(bumped.score)
	if sameResult(bumped, &ref) {
		t.Fatal("one ULP in the score went unnoticed")
	}
	for i := range same.z {
		bumped = same
		bumped.z[i] = up(bumped.z[i])
		if sameResult(bumped, &ref) {
			t.Fatalf("one ULP in z%d went unnoticed", i+1)
		}
	}
	bumped = same
	bumped.code = guard.ReasonNoChallenge
	if sameResult(bumped, &ref) {
		t.Fatal("a different reason code went unnoticed")
	}
}

// Each instance's calls go to the workers of that instance only, in
// turn; with fewer workers than instances, one worker serves them all.
func TestInstWorker(t *testing.T) {
	cases := []struct {
		inst, n, workers int
		want             int
	}{
		{0, 0, 2, 0}, {0, 7, 2, 0}, {1, 0, 2, 1}, {1, 5, 2, 1},
		{0, 0, 3, 0}, {0, 1, 3, 2}, {1, 4, 3, 1},
		{0, 1, 4, 2}, {1, 0, 4, 1}, {1, 1, 4, 3},
		{0, 3, 1, 0}, {1, 3, 1, 0},
	}
	for _, c := range cases {
		if got := instWorker(c.inst, c.n, c.workers, 2); got != c.want {
			t.Errorf("instWorker(inst %d, call %d, %d workers) = %d, want %d", c.inst, c.n, c.workers, got, c.want)
		}
	}
}

// A park counts as waiting on a checkpoint when its segment came due
// between the checkpoint's due instant and its return, on the same store.
func TestPutsDuringCheckpoint(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	ws := []*wstats{
		{ckpts: []ckptWin{{store: 0, due: at(100), end: at(180)}}},
		{parks: []parkRec{
			{store: 0, due: at(99), end: at(101)},  // due before the checkpoint
			{store: 0, due: at(120), end: at(185)}, // waited: 65 ms
			{store: 1, due: at(130), end: at(131)}, // other store
			{store: 0, due: at(180), end: at(182)}, // due after it returned
		}},
	}
	got := putsDuringCheckpoint(ws)
	if len(got) != 1 || got[0] != 65000 {
		t.Fatalf("putsDuringCheckpoint = %v, want [65000]", got)
	}
}
