package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/guard"
	"repro/trace"
)

const (
	sampleHz     = 10
	samplePeriod = time.Second / sampleHz
	segSamples   = 50 // 5 s segments, the vcguard serve -state-dir shape
	liveSlots    = 20 // live phases per 100 ms sample period: a tick every 5 ms
	liveTick     = samplePeriod / liveSlots
	poolSeconds  = 120
	trainWindows = 12
	trainSeed    = 8919                   // the training windows' first seed, whatever --seed is
	lateLimit    = 500 * time.Millisecond // one hop: a later verdict is a failed op
)

// workload fixes the traffic mix of one named benchmark workload.
type workload struct {
	name    string
	calls   int     // concurrent calls when the timed phase starts
	genuine float64 // share of genuine callers; the rest split over the three attacks
	// live: prefill each call to a uniform point in [prefillMin, prefillMax] seconds.
	prefillMin, prefillMax float64
	// longcall: prefill to about this point, in seconds.
	longAt float64
	// churn: call lengths are uniform in [durMin, durMax] seconds.
	durMin, durMax float64
	segmented      bool // served in 5 s segments through the stores
	maxHot         int  // per instance store; 0 keeps everything hot
	ckptEvery      time.Duration
	checkAll       bool // compare every session with the batch reference
	liveChecked    int  // otherwise, how many seeded sessions to compare
}

var workloads = map[string]workload{
	// All hot, pushed sample by sample: the hop judge and the filter
	// chains do almost all the work; the stores see no timed traffic.
	"live": {name: "live", calls: 2000, genuine: 0.8, prefillMin: 20, prefillMax: 80, liveChecked: 512},
	// Minute-10 calls through a hot budget far below the call count:
	// nearly every segment decodes warm state and re-encodes a demotion.
	"longcall": {name: "longcall", calls: 100, genuine: 1, longAt: 600, segmented: true,
		maxHot: 4, ckptEvery: time.Second, checkAll: true},
	// Poisson arrivals of short calls: small states, hot hits, session
	// creation and Finish beside inserts, failover of many small records.
	// The hot budget sits above each store's population: with every call
	// returning on a 5 s cycle, LRU demotion below the population would
	// evict exactly the state needed next, so every take would miss.
	// With every call hot, a checkpoint encodes each call parked since
	// the previous one while it holds the store; every half second keeps
	// that wait well under the 500 ms at which a verdict counts as failed
	// (at every second it reached 272 ms on a busy host).
	"churn": {name: "churn", calls: 800, genuine: 0.7, durMin: 20, durMax: 90, segmented: true,
		maxHot: 1000, ckptEvery: 500 * time.Millisecond, checkAll: true},
}

// poolTrace is both signals of one simulated call, which sessions replay.
type poolTrace struct {
	tx, rx []float64
}

// inputs is everything generated from the seed before set-up starts.
type inputs struct {
	pool     []poolTrace
	byKind   map[guard.PeerKind][]int
	training []trace.Session
}

// session is one call: its plan (fixed by the seed) and its run state.
type session struct {
	idx    int
	id     string
	trace  int
	offset int
	worker int
	check  bool

	prefill int           // samples pushed during set-up
	total   int           // samples in the whole call; 0 means it outlives the run
	arrive  time.Duration // when sample 0 was due, relative to the timed phase's start
	slot    int           // live: tick slot within the 100 ms period

	inst   int // instance store the call is routed to
	sd     *guard.StreamDetector
	pushed int
	hops   int
	parked bool
	done   bool
	final  []guard.WindowResult // every hop result, once the call has finished
	rec    []hopRec             // verdicts as Push/Finish returned them after set-up
}

// dueOf is when sample k of s is due at the generator.
func (s *session) dueOf(k int) time.Duration {
	return s.arrive + time.Duration(k+1)*samplePeriod
}

// genInputs simulates the trace pool and the training windows. All of it
// happens before set-up, so the simulator stays out of every number.
// The pool comes from the seed; the training windows do not. The
// detector is a fixed model, as a deployed one is, and the seed varies
// only the traffic: trained from the seed, its calibration changed how
// much every call's state holds, and with it the size and cost of
// checkpoints and failovers, by about ±8 % between seeds.
func genInputs(w workload, seed int64, workers int) (*inputs, error) {
	// Eight traces: five genuine and one per attack, or eight genuine.
	kinds := []guard.PeerKind{guard.PeerGenuine, guard.PeerGenuine, guard.PeerGenuine, guard.PeerGenuine, guard.PeerGenuine}
	if w.genuine < 1 {
		kinds = append(kinds, guard.PeerReenact, guard.PeerReplay, guard.PeerForger)
	} else {
		kinds = append(kinds, guard.PeerGenuine, guard.PeerGenuine, guard.PeerGenuine)
	}
	in := &inputs{pool: make([]poolTrace, len(kinds)), byKind: map[guard.PeerKind][]int{}}
	var opts []guard.SimOptions
	for i, k := range kinds {
		in.byKind[k] = append(in.byKind[k], i)
		opts = append(opts, guard.SimOptions{Seed: seed*7919 + int64(i), DurationSec: poolSeconds, Peer: k, ForgeDelaySec: 1})
	}
	for i := 0; i < trainWindows; i++ {
		opts = append(opts, guard.SimOptions{Seed: trainSeed + int64(i), DurationSec: 15, Peer: guard.PeerGenuine})
	}
	out := make([]trace.Session, len(opts))
	errs := make([]error, len(opts))
	var wg sync.WaitGroup
	next := make(chan int)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i], errs[i] = guard.Simulate(opts[i])
			}
		}()
	}
	for i := range opts {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("simulate inputs: %w", err)
		}
	}
	for i := range in.pool {
		in.pool[i].tx, in.pool[i].rx = out[i].T, out[i].R
	}
	in.training = out[len(in.pool):]
	return in, nil
}

// sample returns sample k of s's call. Calls replay their pool trace from
// a per-call offset and wrap around its end (only longcall runs long
// enough to wrap); the batch reference sees the same samples.
func (in *inputs) sample(s *session, k int) guard.StreamSample {
	t := &in.pool[s.trace]
	i := (s.offset + k) % len(t.tx)
	return guard.StreamSample{Transmitted: t.tx[i], Received: t.rx[i]}
}

// samples returns the first n samples of s's call.
func (in *inputs) samples(s *session, n int) []guard.StreamSample {
	out := make([]guard.StreamSample, n)
	for k := range out {
		out[k] = in.sample(s, k)
	}
	return out
}

// planSessions draws the calls of one run from the seed. horizon is how
// long the timed phase lasts; only churn uses it, to place arrivals.
// Per-call properties are drawn stratified (see strata) and the attack
// mix is exact, so that what the seed changes is which call gets which
// property, not the population's averages.
func planSessions(w workload, in *inputs, seed int64, horizon time.Duration, workers int) []*session {
	rng := rand.New(rand.NewSource(seed))
	poolLen := poolSeconds * sampleHz
	next := map[guard.PeerKind]int{}
	pick := func(k guard.PeerKind) int { // round robin: each pool trace serves an equal share
		ts := in.byKind[k]
		next[k]++
		return ts[next[k]%len(ts)]
	}
	// The longest a live or churn call reads past its offset, so that
	// those calls never wrap their trace.
	tail := int(horizon/samplePeriod) + segSamples
	var out []*session
	add := func(s *session) {
		s.idx = len(out)
		s.id = fmt.Sprintf("%s-%05d", w.name, s.idx)
		s.worker = s.idx % workers // segmented workloads serve by instance instead (newBench)
		out = append(out, s)
	}
	switch w.name {
	case "live":
		maxPre := int(w.prefillMax * sampleHz)
		u, kinds := strata(rng, w.calls), mix(rng, w.calls, w.genuine)
		for i := 0; i < w.calls; i++ {
			pre := int((w.prefillMin + u[i]*(w.prefillMax-w.prefillMin)) * sampleHz)
			s := &session{trace: pick(kinds[i]), offset: rng.Intn(poolLen - maxPre - tail), prefill: pre}
			// Slots fill evenly; a worker owns calls in every slot.
			s.slot = (i / workers) % liveSlots
			s.arrive = time.Duration(s.slot)*liveTick - time.Duration(pre)*samplePeriod - samplePeriod
			add(s)
		}
	case "longcall":
		for i := 0; i < w.calls; i++ {
			pre := int(w.longAt*sampleHz) + rng.Intn(segSamples)
			s := &session{trace: pick(guard.PeerGenuine), offset: rng.Intn(poolLen), prefill: pre}
			// Segment deliveries are spread evenly over the 5 s cycle, with
			// a little seeded jitter.
			first := time.Duration(i)*segSamples*samplePeriod/time.Duration(w.calls) + time.Duration(rng.Intn(int(5*time.Millisecond)))
			s.arrive = first - time.Duration(pre+segSamples)*samplePeriod
			add(s)
		}
	case "churn":
		a, b := w.durMin*sampleHz, w.durMax*sampleHz
		maxLen := int(b)
		offset := func() int { return rng.Intn(poolLen - maxLen - segSamples) }
		// Calls in progress at the start: the steady-state population has
		// length-biased lengths (inverse CDF of a density proportional to
		// the length) and ages uniform within each call. A call started at
		// any instant, not on a shared 100 ms grid, so its samples fall due
		// between the grid points as an arrival's do.
		ul, ua, kinds := strata(rng, w.calls), strata(rng, w.calls), mix(rng, w.calls, w.genuine)
		for i := 0; i < w.calls; i++ {
			n := int(math.Sqrt(a*a + ul[i]*(b*b-a*a)))
			age := int(ua[i] * float64(n-1))
			s := &session{trace: pick(kinds[i]), offset: offset(), total: n}
			s.prefill = age / segSamples * segSamples
			s.arrive = -time.Duration((float64(age) + rng.Float64()) * float64(samplePeriod))
			add(s)
		}
		// Arrivals during the timed phase at the rate that keeps the
		// population steady (population / mean length): a Poisson process
		// conditioned on its count, i.e. that many seeded uniform times.
		rate := float64(w.calls) / ((w.durMin + w.durMax) / 2)
		n := int(rate*horizon.Seconds() + 0.5)
		ul, kinds = strata(rng, n), mix(rng, n, w.genuine)
		for i := 0; i < n; i++ {
			s := &session{trace: pick(kinds[i]), offset: offset(), total: int(a + ul[i]*(b-a))}
			s.arrive = time.Duration(rng.Float64() * float64(horizon))
			add(s)
		}
	}
	for pos, i := range rng.Perm(len(out)) {
		out[i].check = w.checkAll || pos < w.liveChecked
	}
	return out
}

// strata returns n draws in [0, 1), one from each of n equal strata, in
// seeded order. Their spread is nearly the same for every seed, unlike n
// independent draws.
func strata(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i, j := range rng.Perm(n) {
		out[i] = (float64(j) + rng.Float64()) / float64(n)
	}
	return out
}

// mix returns n peer kinds in seeded order: exactly round(n*genuine)
// genuine callers, the rest spread evenly over the three attacks.
func mix(rng *rand.Rand, n int, genuine float64) []guard.PeerKind {
	attacks := []guard.PeerKind{guard.PeerReenact, guard.PeerReplay, guard.PeerForger}
	g := int(float64(n)*genuine + 0.5)
	out := make([]guard.PeerKind, n)
	for i, j := range rng.Perm(n) {
		out[i] = guard.PeerGenuine
		if j >= g {
			out[i] = attacks[(j-g)%len(attacks)]
		}
	}
	return out
}
