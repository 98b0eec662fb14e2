package guard

import (
	"fmt"
	"time"

	"repro/internal/admission"
)

// ErrStageTimeout reports a detection stage abandoned past its budget.
// The stage's goroutine keeps running until the underlying call returns
// (the DSP chain takes no context), but its result is discarded and the
// caller moves on — the overload is contained to one window. It is
// rooted at the typed shed family: a budget overrun is load shed at the
// stage level, so callers gating on errors.Is(err, admission.ErrShed)
// see it alongside queue-level sheds.
var ErrStageTimeout = fmt.Errorf("%w: guard stage budget exceeded", admission.ErrShed)

// Guardrails bound a detection stage under overload. The zero value
// disables both protections: stages run inline with no budget.
type Guardrails struct {
	// Budget, when positive, is the wall-clock allowance per window.
	// Overruns return ErrStageTimeout (wrapped) instead of blocking.
	Budget time.Duration
	// Breaker, when non-nil, is consulted before every window and fed
	// the stage outcome: panics and budget overruns count as failures,
	// clean runs and plain input errors as successes. While open,
	// windows fail fast with admission.ErrBreakerOpen.
	Breaker *admission.Breaker
}

// stageResult carries a stage outcome across the budget goroutine.
type stageResult struct {
	v        Verdict
	err      error
	panicked bool
}

// runStage executes one window's detection under the guardrails.
// Breaker accounting: a panic or timeout is a stage failure; a clean run
// or an ordinary input error is a success (a malformed window says
// nothing about the stage's health).
func runStage(g Guardrails, i int, detect func(i int) (Verdict, error)) (Verdict, error) {
	if g.Breaker != nil {
		if err := g.Breaker.Allow(); err != nil {
			return Verdict{}, err
		}
	}
	if g.Budget <= 0 {
		v, err, panicked := safeDetect(detect, i)
		g.feed(panicked)
		return v, err
	}
	ch := make(chan stageResult, 1)
	//lint:ignore vclint/goleak deliberately detached: on a budget overrun the stage goroutine is orphaned by design (the DSP chain takes no context); the buffered channel guarantees its send never blocks, so it exits as soon as the call returns
	go func() {
		v, err, panicked := safeDetect(detect, i)
		ch <- stageResult{v: v, err: err, panicked: panicked}
	}()
	timer := time.NewTimer(g.Budget)
	defer timer.Stop()
	select {
	case res := <-ch:
		g.feed(res.panicked)
		return res.v, res.err
	case <-timer.C:
		metricStageTimeouts.Inc()
		g.feed(true)
		return Verdict{}, fmt.Errorf("guard: batch window %d: %w (budget %v)", i, ErrStageTimeout, g.Budget)
	}
}

// feed reports one stage outcome to the breaker, if any.
func (g Guardrails) feed(failed bool) {
	if g.Breaker == nil {
		return
	}
	if failed {
		g.Breaker.Failure()
		return
	}
	g.Breaker.Success()
}

// safeDetect runs one detection, converting a panic into an error and
// reporting it separately so breaker accounting can tell a sick stage
// from a malformed window.
func safeDetect(detect func(i int) (Verdict, error), i int) (v Verdict, err error, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			metricPanics.With("batch").Inc()
			v = Verdict{}
			err = fmt.Errorf("guard: batch window %d panicked: %v", i, r)
			panicked = true
		}
	}()
	v, err = detect(i)
	return v, err, false
}
