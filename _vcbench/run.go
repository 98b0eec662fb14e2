package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/guard"
	"repro/internal/admission"
	"repro/internal/cluster"
	"repro/internal/sessionstore"
)

// bench holds one run: its inputs, the system under test, and the
// measurements taken from outside it.
type bench struct {
	w       workload
	workers int
	in      *inputs
	sess    []*session

	det    *guard.Detector
	cfg    guard.StreamConfig
	stores [2]*sessionstore.Store[guard.StreamState]
	bound  [2]*sessionstore.Bound[guard.StreamState]
	policy cluster.AffinityHash
	views  []cluster.InstanceView

	live    [][][]*session // live: [worker][slot] calls in push order
	events  [][]event      // segmented: [worker] deliveries by due time
	ckptBuf []bytes.Buffer // per worker, for timed-phase checkpoints

	org     time.Time // time origin of every span
	retired int       // hops counted by set-ups that a later set-up replaced
}

// event is one input delivery: a segment of a call, or (sess == nil) a
// checkpoint of one instance store at a fixed instant of the input schedule.
type event struct {
	due      time.Duration // relative to the timed phase's start
	sess     *session
	from, to int  // sample range
	last     bool // the call ends with this segment
	store    int  // checkpoint events: which instance store
}

// wstats is what one worker measured in one phase.
type wstats struct {
	tr         *tracer
	lat        []float64 // verdict latency from the input's due time, µs
	late       int
	lag        []float64 // how late the generator woke, µs
	backlog    []bpoint
	samples    int
	verdicts   int
	conclusive int
	ops        int
	spin       time.Duration // CPU the generator spent spinning to a due instant
	ckpts      []ckptWin     // timed checkpoints this worker ran
	parks      []parkRec     // traced phase only
	errs       []string
}

// ckptWin is how long one timed checkpoint held its store: from its due
// instant, after which the store's segments queue behind it, to its return.
type ckptWin struct {
	store    int
	due, end time.Time
}

// parkRec is one park of a served segment: its store, when the segment
// came due, and when the park returned.
type parkRec struct {
	store    int
	due, end time.Time
}

type bpoint struct {
	at time.Duration
	n  int
}

func (st *wstats) fail(format string, a ...any) {
	st.errs = append(st.errs, fmt.Sprintf(format, a...))
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func newBench(w workload, seed int64, seconds, workers int, in *inputs) (*bench, error) {
	b := &bench{w: w, workers: workers, in: in, cfg: guard.DefaultStreamConfig(),
		views:   []cluster.InstanceView{{ID: 0, Healthy: true, Workers: 1}, {ID: 1, Healthy: true, Workers: 1}},
		ckptBuf: make([]bytes.Buffer, workers), org: time.Now()}
	horizon := time.Duration(seconds) * time.Second
	b.sess = planSessions(w, in, seed, horizon, workers)
	// Room for every returned verdict of the compared calls, allocated
	// before the heap baseline so it never counts as session memory.
	perCall := 2*(seconds+segSamples/sampleHz) + 8
	for _, s := range b.sess {
		if s.check {
			s.rec = make([]hopRec, 0, perCall)
		}
	}
	if !w.segmented {
		b.live = make([][][]*session, workers)
		for i := range b.live {
			b.live[i] = make([][]*session, liveSlots)
		}
		for _, s := range b.sess {
			b.live[s.worker][s.slot] = append(b.live[s.worker][s.slot], s)
		}
		return b, nil
	}
	// Each worker serves the calls of one instance, as that instance's
	// own workers would: a checkpoint holding one store's mutex stalls
	// its own instance's calls, not the other's. With one worker, it
	// serves both instances.
	served := make([]int, len(b.stores))
	for _, s := range b.sess {
		inst, err := b.route(s.id)
		if err != nil {
			return nil, fmt.Errorf("route %s: %w", s.id, err)
		}
		s.worker = instWorker(inst, served[inst], workers, len(b.stores))
		served[inst]++
	}
	b.events = make([][]event, workers)
	for _, s := range b.sess {
		for from := s.prefill; s.total == 0 || from < s.total; from += segSamples {
			to := from + segSamples
			if s.total > 0 && to > s.total {
				to = s.total
			}
			due := s.dueOf(to - 1)
			if due >= horizon {
				break
			}
			b.events[s.worker] = append(b.events[s.worker], event{due: due, sess: s, from: from, to: to, last: to == s.total})
		}
	}
	// Each instance persists its own store every ckptEvery, as in vcguard
	// cluster -live, half a period out of step with the other, so a
	// checkpoint holds one store's mutex at a time.
	for k := 1; w.ckptEvery > 0 && time.Duration(k)*w.ckptEvery/2 < horizon; k++ {
		e := event{due: time.Duration(k) * w.ckptEvery / 2, store: k % len(b.stores)}
		wk := instWorker(e.store, 0, workers, len(b.stores))
		b.events[wk] = append(b.events[wk], e)
	}
	for _, evs := range b.events {
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].due < evs[j].due })
	}
	return b, nil
}

// instWorker is the worker that serves the n-th call of instance inst:
// workers w with w % instances == inst take that instance's calls in
// turn. With fewer workers than instances, worker 0 serves them all.
func instWorker(inst, n, workers, instances int) int {
	if workers < instances {
		return 0
	}
	own := (workers - inst + instances - 1) / instances // workers w ≡ inst (mod instances)
	return inst + n%own*instances
}

// route asks the cluster's routing policy which instance store holds id.
func (b *bench) route(id string) (int, error) {
	return b.policy.Route(id, b.views)
}

// setup builds the system and brings every call to its starting point:
// train the detector, build the two instance stores, prefill each call
// in progress, parking it when the workload is segmented, and checkpoint
// the stores once.
func (b *bench) setup() (time.Duration, error) {
	start := time.Now()
	det, err := guard.TrainFromTraces(guard.DefaultOptions(), b.in.training)
	if err != nil {
		return 0, fmt.Errorf("setup: train: %w", err)
	}
	b.det = det
	for i := range b.stores {
		st, err := sessionstore.New[guard.StreamState](sessionstore.Config{MaxHot: b.w.maxHot}, sessionstore.JSONCodec[guard.StreamState]{})
		if err != nil {
			return 0, fmt.Errorf("setup: store: %w", err)
		}
		b.stores[i], b.bound[i] = st, sessionstore.Bind(st)
	}
	for _, s := range b.sess {
		b.retired += s.hops
		s.sd, s.pushed, s.hops, s.parked, s.done, s.final, s.inst = nil, 0, 0, false, false, nil, 0
		s.rec = s.rec[:0]
	}
	errs := make([]error, b.workers)
	var wg sync.WaitGroup
	for w := 0; w < b.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, s := range b.sess {
				if s.worker != w || s.prefill == 0 {
					continue
				}
				if errs[w] = b.prefill(s); errs[w] != nil {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	// A store in steady state was checkpointed a moment ago: without this
	// the first timed checkpoint would encode every prefilled session.
	for i, st := range b.stores {
		b.ckptBuf[0].Reset()
		if _, err := st.Checkpoint(&b.ckptBuf[0]); err != nil {
			return 0, fmt.Errorf("setup: checkpoint store %d: %w", i, err)
		}
	}
	return time.Since(start), nil
}

// prefill pushes a call's samples up to its starting point.
func (b *bench) prefill(s *session) error {
	sd, err := b.det.NewStreamDetector(b.cfg)
	if err != nil {
		return fmt.Errorf("setup: %s: %w", s.id, err)
	}
	for k := 0; k < s.prefill; k++ {
		if sd.Push(b.in.sample(s, k)) != nil {
			s.hops++
		}
	}
	s.pushed = s.prefill
	if !b.w.segmented {
		s.sd = sd
		return nil
	}
	if s.inst, err = b.route(s.id); err != nil {
		return fmt.Errorf("setup: route %s: %w", s.id, err)
	}
	if err := b.bound[s.inst].Park(s.id, admission.Standard, sd.Export()); err != nil {
		return fmt.Errorf("setup: park %s: %w", s.id, err)
	}
	s.parked = true
	return nil
}

// phase is one stretch of the timed schedule, measured as a whole.
type phase struct {
	from, to time.Duration
	ws       []*wstats
	cpu      time.Duration // process CPU, the generator's spin excluded
	mem0     runtime.MemStats
	mem1     runtime.MemStats
}

// runPhase drives the open-loop schedule between from and to (relative
// to t0) on the workers and measures the process around it.
func (b *bench) runPhase(t0 time.Time, from, to time.Duration, traced bool) *phase {
	ph := &phase{from: from, to: to, ws: make([]*wstats, b.workers)}
	for w := range ph.ws {
		ph.ws[w] = &wstats{tr: &tracer{on: traced, org: b.org}}
		if !b.w.segmented {
			ph.ws[w].lat = make([]float64, 0, len(b.sess)/b.workers*int((to-from)/time.Second)*2+64)
		}
	}
	runtime.ReadMemStats(&ph.mem0)
	cpu0 := processCPU()
	var wg sync.WaitGroup
	for w := 0; w < b.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pinWorker()
			if b.w.segmented {
				b.segWorker(ph.ws[w], b.events[w], t0, from, to, w)
			} else {
				b.liveWorker(ph.ws[w], b.live[w], t0, from, to)
			}
		}(w)
	}
	wg.Wait()
	ph.cpu = processCPU() - cpu0
	for _, w := range ph.ws {
		ph.cpu -= w.spin // the generator's spin is the benchmark's cost, not the program's
	}
	runtime.ReadMemStats(&ph.mem1)
	return ph
}

// liveWorker pushes its calls sample by sample: every tick, the calls of
// that tick's slot each deliver their next sample, all due at the tick.
func (b *bench) liveWorker(st *wstats, slots [][]*session, t0 time.Time, from, to time.Duration) {
	sc := schedule{
		n:    int(to / liveTick),
		due:  func(k int) time.Duration { return time.Duration(k) * liveTick },
		size: func(k int) int { return len(slots[k%liveSlots]) },
	}
	drive(st, t0, sc, from, to, func(k int, due time.Time) {
		for _, s := range slots[k%liveSlots] {
			sp := st.tr.begin("guard.push", s.idx, 0)
			r := s.sd.Push(b.in.sample(s, s.pushed))
			s.pushed++
			if r == nil {
				st.tr.end(sp, false)
				continue
			}
			end := time.Now()
			st.tr.end(sp, true)
			st.verdict(s, r, end.Sub(due))
		}
		st.samples += len(slots[k%liveSlots])
	})
}

// schedule is one worker's inputs in due order: n deliveries, each due
// at a fixed offset from the timed phase's start and carrying size inputs.
type schedule struct {
	n    int
	due  func(i int) time.Duration // non-decreasing in i
	size func(i int) int
}

// drive is the open-loop generator of one worker. It serves deliveries
// in due order, sleeping while ahead of the schedule and running late,
// never skipping, when behind it; serve receives each delivery's due
// instant, so a stall is charged to every input that waited behind it.
// It records how late each wake-up was and the backlog at each delivery:
// inputs due by then and not yet served, its own included.
func drive(st *wstats, t0 time.Time, sc schedule, from, to time.Duration, serve func(i int, due time.Time)) {
	i := sort.Search(sc.n, func(i int) bool { return sc.due(i) >= from })
	ptr, backlog := i, 0
	for ; i < sc.n && sc.due(i) < to; i++ {
		due := t0.Add(sc.due(i))
		now := time.Now()
		if now.Before(due) {
			st.spin += waitUntil(due)
			now = time.Now()
			st.lag = append(st.lag, us(now.Sub(due)))
		}
		for ptr < sc.n && sc.due(ptr) < to && !t0.Add(sc.due(ptr)).After(now) {
			backlog += sc.size(ptr)
			ptr++
		}
		st.backlog = append(st.backlog, bpoint{sc.due(i), backlog})
		serve(i, due)
		backlog -= sc.size(i)
	}
}

// verdict records one hop result returned to the benchmark.
func (st *wstats) verdict(s *session, r *guard.WindowResult, lat time.Duration) {
	st.verdicts++
	st.ops++
	if !r.Inconclusive {
		st.conclusive++
	}
	st.lat = append(st.lat, us(lat))
	if lat > lateLimit {
		st.late++
	}
	if s.check {
		s.rec = append(s.rec, recOf(s.hops, r))
	}
	s.hops++
}

// segWorker serves its segment deliveries and checkpoints in due order.
func (b *bench) segWorker(st *wstats, evs []event, t0 time.Time, from, to time.Duration, w int) {
	sc := schedule{
		n:    len(evs),
		due:  func(i int) time.Duration { return evs[i].due },
		size: func(int) int { return 1 },
	}
	drive(st, t0, sc, from, to, func(i int, due time.Time) {
		if evs[i].sess == nil {
			b.timedCheckpoint(st, w, evs[i].store, due)
			return
		}
		b.serveSegment(st, evs[i], due)
	})
}

// timedCheckpoint serializes one instance store into memory. It fires
// at fixed instants of the input schedule, so the parks it delays are
// the same from run to run; disk time stays out of the timed phase.
func (b *bench) timedCheckpoint(st *wstats, w, store int, due time.Time) {
	b.ckptBuf[w].Reset()
	sp := st.tr.begin("sessionstore.checkpoint", -1, 0)
	_, err := b.stores[store].Checkpoint(&b.ckptBuf[w])
	st.tr.end(sp, false)
	st.ckpts = append(st.ckpts, ckptWin{store, due, time.Now()})
	if err != nil {
		st.fail("checkpoint store %d: %v", store, err)
	}
}

// serveSegment advances one call by one delivered segment, in the shape
// of vcguard serve -state-dir: rehydrate, resume, push, then export and
// park, or Finish when the call ends.
func (b *bench) serveSegment(st *wstats, e event, due time.Time) {
	s := e.sess
	root := st.tr.begin("segment", s.idx, 0)
	defer st.tr.end(root, false)
	if s.pushed != e.from {
		st.fail("%s: segment starts at sample %d, call is at %d", s.id, e.from, s.pushed)
		return
	}
	var sd *guard.StreamDetector
	var err error
	if s.parked {
		sp := st.tr.begin("sessionstore.take", s.idx, root)
		v, ok, rerr := b.bound[s.inst].Rehydrate(s.id)
		st.tr.end(sp, false)
		st.ops++
		if rerr != nil || !ok {
			st.fail("rehydrate %s: found=%v err=%v", s.id, ok, rerr)
			return
		}
		s.parked = false
		sp = st.tr.begin("guard.resume", s.idx, root)
		sd, err = b.det.ResumeStreamDetector(v.(guard.StreamState))
		st.tr.end(sp, false)
	} else {
		sp := st.tr.begin("cluster.route", s.idx, root)
		s.inst, err = b.route(s.id)
		st.tr.end(sp, false)
		if err == nil {
			sp = st.tr.begin("guard.new", s.idx, root)
			sd, err = b.det.NewStreamDetector(b.cfg)
			st.tr.end(sp, false)
		}
	}
	if err != nil {
		st.fail("%s: start segment: %v", s.id, err)
		return
	}
	for k := e.from; k < e.to; k++ {
		sp := st.tr.begin("guard.push", s.idx, root)
		r := sd.Push(b.in.sample(s, k))
		if r == nil {
			st.tr.end(sp, false)
			continue
		}
		end := time.Now()
		st.tr.end(sp, true)
		st.verdict(s, r, end.Sub(due))
	}
	s.pushed = e.to
	st.samples += e.to - e.from
	if e.last {
		sp := st.tr.begin("guard.finish", s.idx, root)
		fin := sd.Finish()
		end := time.Now()
		st.tr.end(sp, false)
		for i := range fin {
			st.verdict(s, &fin[i], end.Sub(due))
		}
		_, _ = sd.Flagged() // the call's verdict; a call with no conclusive hop has none
		s.final, s.done = sd.Results(), true
		return
	}
	sp := st.tr.begin("guard.export", s.idx, root)
	state := sd.Export()
	st.tr.end(sp, false)
	sp = st.tr.begin("sessionstore.put", s.idx, root)
	err = b.bound[s.inst].Park(s.id, admission.Standard, state)
	st.tr.end(sp, false)
	if st.tr.on {
		st.parks = append(st.parks, parkRec{s.inst, due, time.Now()})
	}
	st.ops++
	if err != nil {
		st.fail("park %s: %v", s.id, err)
		return
	}
	s.parked = true
}
