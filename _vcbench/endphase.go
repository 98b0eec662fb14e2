package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/guard"
	"repro/internal/admission"
	"repro/internal/chat"
	"repro/internal/cluster"
	"repro/internal/sessionstore"
)

const (
	ckptRepeats = 25 // timed in-memory checkpoints; the fastest is reported
	failRepeats = 9  // failovers onto fresh survivors; the fastest is reported
	newProbes   = 200
)

// endResult is what the end phase measured.
type endResult struct {
	sessions     int // sessions parked on the two stores
	stateBytes   int // bytes of the first end-phase checkpoint
	warmBytes    int64
	ckptMs       []float64 // process CPU per repeat
	ckptWallMs   []float64
	saveMs       []float64
	failMs       []float64 // process CPU per failover
	failWallMs   []float64
	readMs       float64
	handoffBytes atomic.Int64
	recovered    int
	inconclusive int
	ops          int
	hops         int
	jsonBytes    []float64
	lost         int // sessions a failover did not recover
	errs         []string
}

func (r *endResult) fail(format string, a ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, a...))
}

// countConn counts the bytes written through one end of a handoff link
// and reports when the link is closed.
type countConn struct {
	net.Conn
	n       *atomic.Int64
	once    sync.Once
	onClose func()
}

func (c *countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *countConn) Close() error {
	if c.onClose != nil {
		c.once.Do(c.onClose)
	}
	return c.Conn.Close()
}

// timedMover records a span around every PutBlob the failover makes into
// the survivor's store; traced runs only.
type timedMover struct {
	*sessionstore.Bound[guard.StreamState]
	tr     *tracer
	parent *atomic.Int32
}

func (m *timedMover) PutBlob(id string, prio admission.Priority, blob []byte) error {
	sp := m.tr.begin("cluster.putblob", -1, m.parent.Load())
	err := m.Bound.PutBlob(id, prio, blob)
	m.tr.end(sp, false)
	return err
}

// endPhase parks every open call onto the two instance stores,
// checkpoints them, fails instance 1 over onto instance 0, and resumes
// every call on the survivor for one more segment before finishing it.
func (b *bench) endPhase(tr *tracer, dir string) *endResult {
	res := &endResult{}
	// 1. Park. Segmented calls are parked already.
	for _, s := range b.sess {
		if s.sd == nil {
			continue
		}
		var err error
		sp := tr.begin("cluster.route", s.idx, 0)
		s.inst, err = b.route(s.id)
		tr.end(sp, false)
		if err != nil {
			res.fail("route %s: %v", s.id, err)
			continue
		}
		sp = tr.begin("guard.export", s.idx, 0)
		state := s.sd.Export()
		tr.end(sp, false)
		sp = tr.begin("sessionstore.put", s.idx, 0)
		err = b.bound[s.inst].Park(s.id, admission.Standard, state)
		tr.end(sp, false)
		res.ops++
		if err != nil {
			res.fail("park %s: %v", s.id, err)
			continue
		}
		s.sd, s.parked = nil, true
	}
	for _, st := range b.stores {
		hot, warm := st.Len()
		res.sessions += hot + warm
		res.warmBytes += st.WarmBytes()
	}

	// 2. Checkpoint: once to encode every hot session and count the bytes,
	// then timed repeats into memory, then a durable save per store.
	var buf bytes.Buffer
	for i, st := range b.stores {
		n, err := st.Checkpoint(&buf)
		if err != nil {
			res.fail("checkpoint store %d: %v", i, err)
		}
		res.stateBytes += n
	}
	// Each timed repeat starts from a fresh GC cycle, so whether a
	// collection lands inside it does not vary from run to run; the GC's
	// own cost is reported by the runtime.* per-layer metrics. The repeat
	// is timed on the process CPU clock: the call neither blocks nor runs
	// in parallel, while its wall time on a shared host varied by up to
	// 80% with steal. The fastest repeat is its cost on an uncontended
	// core. On a shared 2-vCPU virtual machine the same checkpoint took
	// either about 5 or about 9 ms of CPU, switching every few hundred
	// milliseconds with what shared the physical core, so the median of
	// the repeats jumped between the two from run to run.
	for r := 0; r < ckptRepeats; r++ {
		runtime.GC()
		start, cpu0 := time.Now(), processCPU()
		for i, st := range b.stores {
			buf.Reset()
			sp := tr.begin("sessionstore.checkpoint", -1, 0)
			_, err := st.Checkpoint(&buf)
			tr.end(sp, false)
			if err != nil {
				res.fail("checkpoint store %d: %v", i, err)
			}
		}
		res.ckptMs = append(res.ckptMs, ms(processCPU()-cpu0))
		res.ckptWallMs = append(res.ckptWallMs, ms(time.Since(start)))
	}
	paths := [2]string{filepath.Join(dir, "instance0.vcr"), filepath.Join(dir, "instance1.vcr")}
	for i, st := range b.stores {
		start := time.Now()
		sp := tr.begin("sessionstore.save_file", -1, 0)
		err := st.SaveFile(paths[i])
		tr.end(sp, false)
		res.saveMs = append(res.saveMs, ms(time.Since(start)))
		if err != nil {
			res.fail("save store %d: %v", i, err)
			return res
		}
	}
	start := time.Now()
	if _, faults, err := sessionstore.ReadCheckpointFile(paths[1]); err != nil || len(faults) > 0 {
		res.fail("read checkpoint: %v, %d faults", err, len(faults))
	}
	res.readMs = ms(time.Since(start))

	// 3. Fail instance 1 over, each time onto a fresh survivor rebuilt from
	// instance 0's checkpoint, and keep the last survivor.
	hot1, warm1 := b.stores[1].Len()
	var survivor *sessionstore.Bound[guard.StreamState]
	for r := 0; r < failRepeats; r++ {
		surv, cpu, wall, rep, err := b.failover(tr, paths, &res.handoffBytes)
		if err != nil {
			res.fail("failover: %v", err)
			return res
		}
		res.failMs = append(res.failMs, ms(cpu))
		res.failWallMs = append(res.failWallMs, ms(wall))
		res.ops += len(rep.Recovered) + len(rep.Inconclusive)
		res.recovered, res.inconclusive = len(rep.Recovered), len(rep.Inconclusive)
		if len(rep.Recovered) != hot1+warm1 || len(rep.Inconclusive) > 0 {
			res.lost += hot1 + warm1 - len(rep.Recovered)
			res.fail("failover recovered %d of %d sessions, %d inconclusive", len(rep.Recovered), hot1+warm1, len(rep.Inconclusive))
		}
		survivor = surv
	}

	// 4. One more segment per call on the survivor, then the call ends.
	for _, s := range b.sess {
		if !s.parked {
			continue
		}
		b.lastSegment(tr, res, survivor, s)
	}
	if tr.on {
		// Probes, so every workload reports these layers: segmented calls
		// were routed during set-up, and only churn creates detectors.
		for _, s := range b.sess {
			sp := tr.begin("cluster.route", s.idx, 0)
			_, err := b.route(s.id)
			tr.end(sp, false)
			if err != nil {
				res.fail("route %s: %v", s.id, err)
			}
		}
		for i := 0; i < newProbes; i++ {
			sp := tr.begin("guard.new", -1, 0)
			_, err := b.det.NewStreamDetector(b.cfg)
			tr.end(sp, false)
			if err != nil {
				res.fail("new detector: %v", err)
			}
		}
	}
	return res
}

// failover builds a two-instance cluster whose survivor holds instance
// 0's checkpointed calls, fails instance 1 over a fault-free net.Pipe
// link, and times FailInstance on the process CPU clock and the wall
// clock. It runs on one P: the push and serve ends of the link hand off
// on one thread instead of waking an idle vCPU for every frame, which on
// a shared host added milliseconds per wake-up. As with the checkpoint,
// the fastest repeat is the duration on an uncontended core.
func (b *bench) failover(tr *tracer, paths [2]string, wire *atomic.Int64) (*sessionstore.Bound[guard.StreamState], time.Duration, time.Duration, *cluster.MigrationReport, error) {
	st, err := sessionstore.New[guard.StreamState](sessionstore.Config{MaxHot: b.w.maxHot}, sessionstore.JSONCodec[guard.StreamState]{})
	if err != nil {
		return nil, 0, 0, nil, err
	}
	if _, faults, err := st.RecoverFile(paths[0]); err != nil || len(faults) > 0 {
		return nil, 0, 0, nil, fmt.Errorf("rebuild survivor: %v, %d faults", err, len(faults))
	}
	surv := sessionstore.Bind(st)
	var mover cluster.StateMover = surv
	var handoff atomic.Int32
	if tr.on {
		mover = &timedMover{Bound: surv, tr: tr, parent: &handoff}
	}
	var failSpan int32
	dial := func(to int) (net.Conn, net.Conn, error) {
		p, s := net.Pipe()
		sp := tr.begin("cluster.handoff", -1, failSpan)
		handoff.Store(sp)
		return &countConn{Conn: p, n: wire}, &countConn{Conn: s, n: wire, onClose: func() { tr.end(sp, false) }}, nil
	}
	runtime.GC()
	c, err := cluster.New(cluster.Config{
		Policy: &cluster.AffinityHash{},
		Specs: []cluster.InstanceSpec{
			{Scheduler: chat.SchedulerConfig{Workers: 1}, States: mover, CheckpointPath: paths[0]},
			{Scheduler: chat.SchedulerConfig{Workers: 1}, States: b.bound[1], CheckpointPath: paths[1]},
		},
		LinkDialer: dial,
	})
	if err != nil {
		return nil, 0, 0, nil, err
	}
	defer c.Close()
	failSpan = tr.begin("cluster.failover", -1, 0)
	prev := runtime.GOMAXPROCS(1)
	start, cpu0 := time.Now(), processCPU()
	rep, err := c.FailInstance(context.Background(), 1)
	cpu, wall := processCPU()-cpu0, time.Since(start)
	runtime.GOMAXPROCS(prev)
	tr.end(failSpan, false)
	if err != nil {
		return nil, 0, 0, nil, err
	}
	return surv, cpu, wall, rep, nil
}

// lastSegment resumes one call on the survivor, pushes one more segment
// and finishes the call.
func (b *bench) lastSegment(tr *tracer, res *endResult, surv *sessionstore.Bound[guard.StreamState], s *session) {
	root := tr.begin("segment", s.idx, 0)
	defer tr.end(root, false)
	sp := tr.begin("sessionstore.take", s.idx, root)
	v, ok, err := surv.Rehydrate(s.id)
	tr.end(sp, false)
	res.ops++
	if err != nil || !ok {
		res.fail("rehydrate %s on survivor: found=%v err=%v", s.id, ok, err)
		return
	}
	state := v.(guard.StreamState)
	if tr.on {
		if raw, err := json.Marshal(state); err == nil {
			res.jsonBytes = append(res.jsonBytes, float64(len(raw)))
		}
	}
	sp = tr.begin("guard.resume", s.idx, root)
	sd, err := b.det.ResumeStreamDetector(state)
	tr.end(sp, false)
	if err != nil {
		res.fail("resume %s: %v", s.id, err)
		return
	}
	s.parked = false
	got := func(r *guard.WindowResult) {
		res.ops++
		res.hops++
		if s.check {
			s.rec = append(s.rec, recOf(s.hops, r))
		}
		s.hops++
	}
	for k := s.pushed; k < s.pushed+segSamples; k++ {
		sp := tr.begin("guard.push", s.idx, root)
		r := sd.Push(b.in.sample(s, k))
		tr.end(sp, r != nil)
		if r != nil {
			got(r)
		}
	}
	s.pushed += segSamples
	sp = tr.begin("guard.finish", s.idx, root)
	fin := sd.Finish()
	tr.end(sp, false)
	for i := range fin {
		got(&fin[i])
	}
	s.final, s.done = sd.Results(), true
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
