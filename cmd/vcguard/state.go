package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"repro/guard"
	"repro/internal/admission"
	"repro/internal/chaos"
	"repro/internal/chat"
	"repro/internal/sessionstore"
	"repro/trace"
)

// The crash-safe serve path: with -state-dir set, each call runs as a
// chain of short segments instead of one long session. Between segments
// the call's stream-detector state is parked in a tiered session store,
// and a checkpoint goroutine persists the store to disk on a cadence —
// so a crash (SIGKILL included) loses at most the segment in flight,
// and the next run rehydrates every parked call and carries it to a
// verdict. Drain-time cancellations park through the scheduler's
// salvage hook, covered by a final save.

// servedState is one call's cross-segment progress: the exported
// stream-detector state plus how many segments are done.
type servedState struct {
	ID     string            `json:"id"`
	Done   int               `json:"done"`
	Total  int               `json:"total"`
	Stream guard.StreamState `json:"stream"`
}

// servedProgress is the intermediate verdict of a non-final segment.
type servedProgress struct {
	Done, Total int
}

// serveStateParams carries the runServe flag values the stateful path
// needs.
type serveStateParams struct {
	sessions, workers, queue int
	rate                     float64
	drainBudget              time.Duration
	sessionSec, segmentSec   float64
	pace                     time.Duration
	checkpointEvery          time.Duration
	stateDir                 string
	seed                     int64
}

// runServeState is serve with a session-state store behind it.
func runServeState(det *guard.Detector, extract func(*chat.Trace) (trace.Session, error), p serveStateParams) error {
	totalSegs := int(math.Ceil(p.sessionSec / p.segmentSec))
	if totalSegs < 1 {
		totalSegs = 1
	}
	store, err := sessionstore.New[servedState](
		sessionstore.Config{MaxHot: p.workers * 2}, sessionstore.JSONCodec[servedState]{})
	if err != nil {
		return err
	}

	// Recovery: rehydrate whatever the previous run (or crash) left on
	// disk. Damaged records surface as typed faults; the survivors land
	// warm and resume below.
	statePath := filepath.Join(p.stateDir, "sessions.vcr")
	recovered, faults, err := store.RecoverFile(statePath)
	if err != nil {
		return err
	}
	for _, f := range faults {
		fmt.Fprintf(os.Stderr, "vcguard: state: corrupt record: %v\n", f)
	}
	fmt.Printf("state: recovered %d sessions, %d corrupt records, from %s\n", recovered, len(faults), statePath)

	cfg := segmentScheduler(det, extract, store, totalSegs)
	cfg.Workers = p.workers
	cfg.Admission = &chat.AdmissionConfig{QueueCapacity: p.queue, RatePerSec: p.rate}
	cfg.States = sessionstore.Bind(store)
	s, err := chat.NewScheduler(cfg)
	if err != nil {
		return err
	}

	// Periodic checkpoints: the atomic save means a kill at any instant
	// leaves either the previous or the new generation on disk, whole.
	stopCk := make(chan struct{})
	var ckWG sync.WaitGroup
	ckWG.Add(1)
	go func() {
		defer ckWG.Done()
		t := time.NewTicker(p.checkpointEvery)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if err := store.SaveFile(statePath); err != nil {
					fmt.Fprintf(os.Stderr, "vcguard: state checkpoint: %v\n", err)
				}
			case <-stopCk:
				return
			}
		}
	}()

	// Recovered calls resume first, then the fresh arrivals (same IDs as
	// the previous run, so a recovered call-N is this run's call-N
	// continued, not a duplicate).
	seen := map[string]bool{}
	var ids []string
	for _, id := range store.IDs() {
		ids = append(ids, id)
		seen[id] = true
	}
	for i := 0; i < p.sessions; i++ {
		if id := fmt.Sprintf("call-%d", i); !seen[id] {
			ids = append(ids, id)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	var mu sync.Mutex
	completed, failed, shed := 0, 0, 0
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			resumed := false
			// One iteration per segment, with slack for shed retries; a
			// recovered call just needs its remaining segments.
			for attempt := 0; attempt < 4*totalSegs+8; attempt++ {
				if ctx.Err() != nil {
					return
				}
				req, err := serveRequest(id, p.seed+int64(i*1000+attempt), p.segmentSec)
				if err == nil && p.pace > 0 {
					req.Peer, err = chaos.NewSlowSource(req.Peer, p.pace)
				}
				if err != nil {
					mu.Lock()
					failed++
					fmt.Fprintf(os.Stderr, "vcguard: %s: %v\n", id, err)
					mu.Unlock()
					return
				}
				ch, err := s.Submit(context.Background(), req)
				if errors.Is(err, admission.ErrShed) {
					mu.Lock()
					shed++
					mu.Unlock()
					time.Sleep(50 * time.Millisecond)
					continue
				}
				if err != nil {
					return // scheduler closed: the drain below settles the books
				}
				res := <-ch
				if res.RehydrateErr != nil {
					fmt.Fprintf(os.Stderr, "vcguard: %v\n", res.RehydrateErr)
				}
				if res.Err != nil {
					mu.Lock()
					failed++
					mu.Unlock()
					return
				}
				resumed = resumed || res.Resumed
				if rep, ok := res.Verdict.(guard.StreamReport); ok {
					mu.Lock()
					completed++
					mark := ""
					if resumed {
						mark = "[resumed] "
					}
					fmt.Printf("  %s: %s%d hops (%d conclusive, %d attacker votes) flagged=%v\n",
						id, mark, len(rep.Results), rep.Conclusive, rep.AttackerVotes, rep.Flagged)
					mu.Unlock()
					return
				}
			}
		}(i, id)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		fmt.Println("signal received: draining...")
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), p.drainBudget)
	defer cancel()
	unfinished, drainErr := s.Drain(drainCtx)
	if drainErr != nil && !errors.Is(drainErr, context.DeadlineExceeded) {
		return drainErr
	}
	wg.Wait()
	close(stopCk)
	ckWG.Wait()
	// Final save covers drain-time salvage that landed after the last
	// periodic checkpoint.
	if err := store.SaveFile(statePath); err != nil {
		return err
	}
	hot, warm := store.Len()
	fmt.Printf("\ncompleted %d, failed/drained %d, shed submits %d, unfinished %d, parked %d (saved to %s)\n",
		completed, failed, shed, len(unfinished), hot+warm, statePath)
	return nil
}

// segmentScheduler returns the judge hooks of a segmented call: each
// judged segment resumes (or creates) the call's stream detector, pushes
// the segment's samples, and either parks the updated state in store for
// the next segment or, after the last of total segments, finishes with a
// StreamReport. The caller fills in workers, admission and state binding.
func segmentScheduler(det *guard.Detector, extract func(*chat.Trace) (trace.Session, error),
	store *sessionstore.Store[servedState], total int) chat.SchedulerConfig {
	judgeSeg := func(id string, tr *chat.Trace, prior *servedState) (any, error) {
		sess, err := extract(tr)
		if err != nil {
			return nil, err
		}
		st := servedState{ID: id, Total: total}
		var sd *guard.StreamDetector
		if prior != nil {
			st = *prior
			sd, err = det.ResumeStreamDetector(prior.Stream)
		} else {
			sd, err = det.NewStreamDetector(guard.DefaultStreamConfig())
		}
		if err != nil {
			return nil, err
		}
		for i := range sess.T {
			sd.Push(guard.StreamSample{Transmitted: sess.T[i], Received: sess.R[i]})
		}
		st.Done++
		if st.Done < st.Total {
			st.Stream = sd.Export()
			if err := store.Put(id, admission.Standard, st); err != nil {
				return nil, fmt.Errorf("park: %w", err)
			}
			return servedProgress{Done: st.Done, Total: st.Total}, nil
		}
		sd.Finish()
		return sd.Report()
	}
	return chat.SchedulerConfig{
		SessionTimeout: 60 * time.Second,
		Judge: func(id string, tr *chat.Trace) (any, error) {
			return judgeSeg(id, tr, nil)
		},
		JudgeResumed: func(id string, tr *chat.Trace, resumed any) (any, error) {
			st, ok := resumed.(servedState)
			if !ok {
				return nil, fmt.Errorf("resumed state is %T, want servedState", resumed)
			}
			return judgeSeg(id, tr, &st)
		},
		// A segment cancelled mid-run keeps the progress it rehydrated; a
		// first segment has nothing resumable to keep.
		Salvage: func(id string, partial *chat.Trace, resumed any) (any, error) {
			if st, ok := resumed.(servedState); ok {
				return st, nil
			}
			return nil, nil
		},
	}
}
