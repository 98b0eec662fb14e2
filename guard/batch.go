package guard

import (
	"context"
	"fmt"
	"sync"
)

// BatchVerdict is the outcome of one window of a batch detection: the
// verdict (or the error) plus the index of the window in the input slice.
// Results are always returned in input order, so Index is redundant for
// slice callers and exists for log lines and partial-failure reporting.
type BatchVerdict struct {
	Index   int
	Verdict Verdict
	Err     error
}

// BatchDetector fans windows out over a bounded worker pool sharing one
// trained Detector. The zero value is not valid; obtain one from
// Detector.Batch. A BatchDetector is itself safe for concurrent use: each
// call spins up its own pool over the shared read-only model, so verdicts
// are bit-identical to the sequential Detect path regardless of worker
// count or interleaving.
type BatchDetector struct {
	det     *Detector
	workers int
}

// Batch returns a batch view of the detector. workers bounds the pool; 0
// uses the Workers value the detector was trained with (which itself
// defaults to runtime.GOMAXPROCS(0)); negative is invalid.
func (d *Detector) Batch(workers int) (*BatchDetector, error) {
	if workers < 0 {
		return nil, fmt.Errorf("guard: negative workers %d", workers)
	}
	if workers == 0 {
		workers = d.workers
	}
	if workers == 0 { // detector built before options plumbing (zero value)
		workers = 1
	}
	return &BatchDetector{det: d, workers: workers}, nil
}

// Workers returns the pool size used by this batch view.
func (b *BatchDetector) Workers() int { return b.workers }

// Detect classifies every window concurrently and returns one BatchVerdict
// per window, in input order. Windows fail independently: a malformed
// window only sets its own Err.
func (b *BatchDetector) Detect(windows []Session) []BatchVerdict {
	return b.run(len(windows), func(i int) (Verdict, error) {
		return b.det.Detect(windows[i].Transmitted, windows[i].Received)
	})
}

// DetectContext is Detect under overload protection: ctx cancellation
// abandons windows not yet started (their Err is ctx.Err()), and the
// guardrails budget and circuit-break each window's detection stage.
// Shed windows report quickly — a sick stage cannot stall the batch.
func (b *BatchDetector) DetectContext(ctx context.Context, windows []Session, g Guardrails) []BatchVerdict {
	return b.runContext(ctx, g, len(windows), func(i int) (Verdict, error) {
		return b.det.Detect(windows[i].Transmitted, windows[i].Received)
	})
}

// run executes n independent detections over the worker pool. A panic in
// one window is contained to that window's BatchVerdict.Err — one
// malformed input must not take down the whole batch (or, worse, the
// serving process).
func (b *BatchDetector) run(n int, detect func(i int) (Verdict, error)) []BatchVerdict {
	return b.runContext(context.Background(), Guardrails{}, n, detect)
}

// runContext is the shared pool with cancellation and guardrails.
func (b *BatchDetector) runContext(ctx context.Context, g Guardrails, n int, detect func(i int) (Verdict, error)) []BatchVerdict {
	metricBatchWindows.Add(int64(n))
	out := make([]BatchVerdict, n)
	workers := b.workers
	if workers > n {
		workers = n
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if err := ctx.Err(); err != nil {
					out[i] = BatchVerdict{Index: i, Err: err}
					continue
				}
				v, err := runStage(g, i, detect)
				out[i] = BatchVerdict{Index: i, Verdict: v, Err: err}
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case jobs <- i:
		case <-ctx.Done():
			for j := i; j < n; j++ {
				out[j] = BatchVerdict{Index: j, Err: ctx.Err()}
			}
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	return out
}

// DetectBatch is the all-or-nothing convenience wrapper: it classifies
// every window over a pool of the detector's configured size and returns
// the verdicts in input order, or the error of the lowest-indexed failing
// window. For per-window error handling use Detector.Batch.
func DetectBatch(d *Detector, windows []Session) ([]Verdict, error) {
	b, err := d.Batch(0)
	if err != nil {
		return nil, err
	}
	results := b.Detect(windows)
	verdicts := make([]Verdict, len(results))
	for i, r := range results {
		if r.Err != nil {
			return nil, fmt.Errorf("guard: batch window %d: %w", i, r.Err)
		}
		verdicts[i] = r.Verdict
	}
	return verdicts, nil
}
