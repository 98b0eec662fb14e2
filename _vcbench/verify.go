package main

import (
	"fmt"
	"math"
	"sync"

	"repro/guard"
)

// hopRec is a hop result as the library returned it, kept compact for
// comparison against the batch reference after the run.
type hopRec struct {
	hop          int32
	code         guard.ReasonCode
	inconclusive bool
	attacker     bool
	score        float64
	z            [4]float64
}

func recOf(hop int, r *guard.WindowResult) hopRec {
	return hopRec{hop: int32(hop), code: r.Code, inconclusive: r.Inconclusive,
		attacker: r.Verdict.Attacker, score: r.Verdict.Score, z: r.Verdict.Features}
}

// sameResult reports whether a returned hop result matches the reference
// bit for bit: Float64bits equality of the score and z1–z4, and equal
// outcome and reason code.
func sameResult(got hopRec, ref *guard.WindowResult) bool {
	want := recOf(int(got.hop), ref)
	if got.code != want.code || got.inconclusive != want.inconclusive || got.attacker != want.attacker {
		return false
	}
	if math.Float64bits(got.score) != math.Float64bits(want.score) {
		return false
	}
	for i := range got.z {
		if math.Float64bits(got.z[i]) != math.Float64bits(want.z[i]) {
			return false
		}
	}
	return true
}

// verifyCall compares one finished call with DetectStreamBatch over the
// same samples: every hop of its final history, and every verdict the
// library returned to the benchmark after set-up. It returns the number
// of mismatching hops and a description of the first.
func (b *bench) verifyCall(s *session) (int, string, error) {
	ref, err := b.det.DetectStreamBatch(b.in.samples(s, s.pushed), b.cfg)
	if err != nil {
		return 0, "", fmt.Errorf("reference %s: %w", s.id, err)
	}
	bad, first := 0, ""
	note := func(format string, a ...any) {
		bad++
		if first == "" {
			first = s.id + ": " + fmt.Sprintf(format, a...)
		}
	}
	if len(s.final) != len(ref) || s.hops != len(ref) {
		note("%d hops in history, %d returned, %d in reference", len(s.final), s.hops, len(ref))
	}
	for i := range s.final {
		if i < len(ref) && !sameResult(recOf(i, &s.final[i]), &ref[i]) {
			note("history hop %d differs", i)
		}
	}
	for _, r := range s.rec {
		if int(r.hop) >= len(ref) || !sameResult(r, &ref[r.hop]) {
			note("returned hop %d differs", r.hop)
		}
	}
	return bad, first, nil
}

// verifyAll checks every compared call that finished, spread over the
// workers. It returns the mismatch count and up to a few descriptions.
func (b *bench) verifyAll() (checked, mismatches int, notes []string, err error) {
	var mu sync.Mutex
	var firstErr error
	next := make(chan *session)
	var wg sync.WaitGroup
	for w := 0; w < b.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range next {
				bad, note, err := b.verifyCall(s)
				mu.Lock()
				checked++
				mismatches += bad
				if note != "" && len(notes) < 5 {
					notes = append(notes, note)
				}
				if err != nil && firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}()
	}
	for _, s := range b.sess {
		if s.check && s.done {
			next <- s
		}
	}
	close(next)
	wg.Wait()
	return checked, mismatches, notes, firstErr
}
