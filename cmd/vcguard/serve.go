package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/guard"
	"repro/internal/admission"
	"repro/internal/chaos"
	"repro/internal/chat"
	"repro/internal/facemodel"
	"repro/internal/luminance"
	"repro/trace"
)

// runServe is the overload-robust service mode: a scheduler with
// admission control verifies a stream of simulated calls until the work
// runs out or SIGTERM/SIGINT arrives, then drains gracefully within
// -drain-budget and checkpoints whatever did not finish so the next run
// can pick those sessions back up.
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	sessions := fs.Int("sessions", 20, "number of simulated call sessions to verify")
	workers := fs.Int("workers", 2, "concurrent verification workers")
	queue := fs.Int("queue", 8, "admission queue capacity (arrivals beyond it are shed)")
	rate := fs.Float64("rate", 0, "admission rate limit in sessions/sec (0 = unlimited)")
	drainBudget := fs.Duration("drain-budget", 10*time.Second, "how long a graceful drain may take")
	checkpoint := fs.String("checkpoint", "", "path for the drain checkpoint; existing sessions there are re-verified first")
	judgeMode := fs.String("judge", "stream", "verdict cadence: stream (a verdict every 0.5 s hop over the trailing 15 s window) or batch (tumbling 15 s windows, one verdict each); both are majority-voted")
	sessionSec := fs.Float64("session-sec", 30, "simulated call length in seconds; the judge needs warmup plus one full window (18 s at defaults) before its first verdict")
	stateDir := fs.String("state-dir", "", "directory for crash-safe session state; calls run as resumable segments, parked state is checkpointed there, and a restart rehydrates it (stream judge only)")
	segmentSec := fs.Float64("segment-sec", 5, "segment length for -state-dir mode; the detector state parks between segments")
	checkpointEvery := fs.Duration("checkpoint-every", time.Second, "how often -state-dir mode persists the session store")
	pace := fs.Duration("pace", 0, "wall-clock delay per simulated frame, stretching sessions over real time (chaos/crash testing)")
	seed := fs.Int64("seed", 1, "simulation seed")
	metricsAddr := metricsFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *sessions < 1 {
		return fmt.Errorf("-sessions must be >= 1")
	}
	if *judgeMode != "stream" && *judgeMode != "batch" {
		return fmt.Errorf("-judge must be stream or batch, not %q", *judgeMode)
	}
	if *sessionSec < 1 {
		return fmt.Errorf("-session-sec must be >= 1")
	}
	// -judge picks the hop: batch hops a whole window, so the windows
	// tumble instead of slide.
	cfg := guard.DefaultStreamConfig()
	if *judgeMode == "batch" {
		cfg.HopSamples = cfg.WindowSamples
	}
	if *stateDir != "" {
		if *judgeMode != "stream" {
			return fmt.Errorf("-state-dir needs -judge stream: segmented calls run the default sliding hop")
		}
		if *segmentSec < 1 || *segmentSec > *sessionSec {
			return fmt.Errorf("-segment-sec %v outside [1, session length %v]", *segmentSec, *sessionSec)
		}
		if *checkpointEvery <= 0 {
			return fmt.Errorf("-checkpoint-every must be positive")
		}
		if err := os.MkdirAll(*stateDir, 0o755); err != nil {
			return err
		}
	}
	if *pace < 0 {
		return fmt.Errorf("-pace must be >= 0")
	}
	if err := startMetrics(*metricsAddr); err != nil {
		return err
	}

	// Train on traces from the same chat pipeline the service verifies,
	// so the genuine model matches what the judge will see.
	fmt.Println("training on 10 simulated genuine call sessions...")
	extract := func(tr *chat.Trace) (trace.Session, error) {
		ex, err := luminance.New(luminance.DefaultConfig(), rand.New(rand.NewSource(1)))
		if err != nil {
			return trace.Session{}, err
		}
		rx, err := ex.FaceSignal(tr.Peer)
		if err != nil {
			return trace.Session{}, err
		}
		return trace.Session{Fs: tr.Fs, T: tr.T, R: rx}, nil
	}
	var train []trace.Session
	for i := 0; i < 10; i++ {
		// Training stays at the paper's 15 s window regardless of
		// -session-sec: the enrollment features are per-window.
		req, err := serveRequest(fmt.Sprintf("train-%d", i), *seed+int64(1000+i), 15)
		if err != nil {
			return err
		}
		tr, err := chat.RunSession(req.Config, req.Verifier, req.Peer)
		if err != nil {
			return err
		}
		sess, err := extract(tr)
		if err != nil {
			return err
		}
		sess.Ground = trace.LabelLegit
		train = append(train, sess)
	}
	det, err := guard.TrainFromTraces(guard.DefaultOptions(), train)
	if err != nil {
		return err
	}

	if *stateDir != "" {
		return runServeState(det, extract, serveStateParams{
			sessions: *sessions, workers: *workers, queue: *queue,
			rate: *rate, drainBudget: *drainBudget,
			sessionSec: *sessionSec, segmentSec: *segmentSec,
			pace: *pace, checkpointEvery: *checkpointEvery,
			stateDir: *stateDir, seed: *seed,
		})
	}

	judge := func(id string, tr *chat.Trace) (any, error) {
		sess, err := extract(tr)
		if err != nil {
			return nil, err
		}
		return det.DetectTraceStream(sess, cfg)
	}

	s, err := chat.NewScheduler(chat.SchedulerConfig{
		Workers:        *workers,
		Judge:          judge,
		SessionTimeout: 60 * time.Second,
		Admission:      &chat.AdmissionConfig{QueueCapacity: *queue, RatePerSec: *rate},
	})
	if err != nil {
		return err
	}

	// Recover sessions an earlier run checkpointed at drain time.
	var ids []string
	if *checkpoint != "" {
		if cp, err := guard.LoadCheckpointFile(*checkpoint); err == nil {
			fmt.Printf("recovering %d checkpointed sessions from %s (saved %s)\n",
				len(cp.Sessions), *checkpoint, cp.SavedAt.Format(time.RFC3339))
			ids = append(ids, cp.Sessions...)
		} else if !errors.Is(err, os.ErrNotExist) {
			fmt.Fprintf(os.Stderr, "vcguard: ignoring unreadable checkpoint: %v\n", err)
		}
	}
	for i := 0; i < *sessions; i++ {
		ids = append(ids, fmt.Sprintf("call-%d", i))
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	type outcome struct {
		id string
		ch <-chan chat.SessionResult
	}
	var pending []outcome
	submitted, shedCount := 0, 0
	for i, id := range ids {
		if ctx.Err() != nil {
			break // signal received: stop admitting new work
		}
		req, err := serveRequest(id, *seed+int64(i), *sessionSec)
		if err != nil {
			return err
		}
		if *pace > 0 {
			if req.Peer, err = chaos.NewSlowSource(req.Peer, *pace); err != nil {
				return err
			}
		}
		ch, err := s.Submit(context.Background(), req)
		if err != nil {
			if errors.Is(err, admission.ErrShed) {
				shedCount++
				fmt.Printf("  %s shed: %v\n", id, err)
				continue
			}
			return err
		}
		submitted++
		pending = append(pending, outcome{id: id, ch: ch})
	}

	if ctx.Err() != nil {
		fmt.Println("signal received: draining...")
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainBudget)
	defer cancel()
	unfinished, drainErr := s.Drain(drainCtx)
	if drainErr != nil && !errors.Is(drainErr, context.DeadlineExceeded) {
		return drainErr
	}
	if len(unfinished) > 0 {
		fmt.Printf("drain budget expired with %d unfinished sessions\n", len(unfinished))
		if *checkpoint != "" {
			if err := guard.SaveCheckpointFile(*checkpoint, guard.Checkpoint{
				SavedAt:  time.Now(),
				Sessions: unfinished,
			}); err != nil {
				return err
			}
			fmt.Printf("checkpointed to %s; rerun with the same -checkpoint to resume\n", *checkpoint)
		}
	}

	completed, failed := 0, 0
	for _, p := range pending {
		res, ok := <-p.ch
		if !ok || res.Err != nil {
			failed++
			continue
		}
		completed++
		if v, ok := res.Verdict.(guard.StreamReport); ok {
			fmt.Printf("  %s: %d hops (%d conclusive, %d attacker votes) flagged=%v\n",
				p.id, len(v.Results), v.Conclusive, v.AttackerVotes, v.Flagged)
		}
	}
	fmt.Printf("\nsubmitted %d, completed %d, failed/drained %d, shed %d, unfinished %d\n",
		submitted, completed, failed, shedCount, len(unfinished))
	return nil
}

// serveRequest assembles one simulated genuine call session of the given
// length.
func serveRequest(id string, seed int64, durationSec float64) (chat.SessionRequest, error) {
	rng := rand.New(rand.NewSource(seed))
	v, err := chat.NewVerifier(chat.DefaultVerifierConfig(facemodel.RandomPerson("verifier", rng)), rng)
	if err != nil {
		return chat.SessionRequest{}, err
	}
	peer, err := chat.NewGenuineSource(chat.DefaultGenuineConfig(facemodel.RandomPerson("peer", rng)), rng)
	if err != nil {
		return chat.SessionRequest{}, err
	}
	cfg := chat.DefaultSessionConfig()
	cfg.DurationSec = durationSec
	return chat.SessionRequest{ID: id, Config: cfg, Verifier: v, Peer: peer}, nil
}
