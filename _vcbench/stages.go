package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"repro/guard"
	"repro/internal/core"
	"repro/internal/dsp"
	"repro/internal/features"
	"repro/internal/preprocess"
)

// maxReplayHops bounds the stage replay of the traced run.
const maxReplayHops = 3000

// stageCosts is the hop judge taken apart: medians per call of each
// public stage function, over real hop windows of this run.
type stageCosts struct {
	chainNsPerSample float64 // one StreamChain.Push
	peaksNs          float64 // both FindPeaks calls of a hop
	extractNs        float64 // ExtractWithDetail, DTW included
	dtwNs            float64 // both DTWWindowed calls of a hop (inside extract)
	lofNs            float64 // core.Detector.DetectVector
	hops             int
}

// coreDetector rebuilds the trained core detector behind b.det from its
// saved form, so its LOF stage can be timed on its own.
func (b *bench) coreDetector() (*core.Detector, error) {
	var buf bytes.Buffer
	if err := b.det.Save(&buf); err != nil {
		return nil, err
	}
	var file struct {
		Snapshot core.Snapshot `json:"snapshot"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		return nil, fmt.Errorf("decode saved detector: %w", err)
	}
	return core.FromSnapshot(file.Snapshot)
}

// replayStages re-runs the hop windows of finished, compared calls
// through the public stage functions, timing each, and checks that the
// replay reproduces the judged score bit for bit.
func (b *bench) replayStages() (stageCosts, error) {
	var sc stageCosts
	cd, err := b.coreDetector()
	if err != nil {
		return sc, err
	}
	cc := cd.Config()
	fcfg := cc.Features
	fcfg.DTWBandRadius = b.cfg.DTWBandRadius
	var chain, peaks, extract, dtw, lof []float64
	for _, s := range b.sess {
		if sc.hops >= maxReplayHops {
			break
		}
		if !s.check || !s.done {
			continue
		}
		smTx, smRx, perSample, err := smoothCall(b.in.samples(s, s.pushed)[b.cfg.WarmupSamples:], cc.Preprocess)
		if err != nil {
			return sc, err
		}
		chain = append(chain, perSample)
		w := b.cfg.WindowSamples
		for j := range s.final {
			r := &s.final[j]
			if r.Inconclusive {
				continue // the judge stops before the stages being timed
			}
			e := w - 1 + j*b.cfg.HopSamples
			winTx, winRx := smTx[e-w+1:e+1], smRx[e-w+1:e+1]

			t := time.Now()
			resTx := preprocess.Result{Smoothed: winTx, Peaks: dsp.FindPeaks(winTx, cc.ScreenProminence)}
			resRx := preprocess.Result{Smoothed: winRx, Peaks: dsp.FindPeaks(winRx, cc.FaceProminence)}
			peaks = append(peaks, float64(time.Since(t)))

			t = time.Now()
			v, _, err := features.ExtractWithDetail(&resTx, &resRx, fcfg)
			extract = append(extract, float64(time.Since(t)))
			if err != nil {
				return sc, fmt.Errorf("replay %s hop %d: %w", s.id, j, err)
			}

			t1, r1, t2, r2 := dtwInputs(&resTx, &resRx, fcfg)
			t = time.Now()
			_, err1 := dsp.DTWWindowed(t1, r1, fcfg.DTWBandRadius)
			_, err2 := dsp.DTWWindowed(t2, r2, fcfg.DTWBandRadius)
			dtw = append(dtw, float64(time.Since(t)))
			if err1 != nil || err2 != nil {
				return sc, fmt.Errorf("replay %s hop %d: dtw: %v %v", s.id, j, err1, err2)
			}

			t = time.Now()
			dec, err := cd.DetectVector(v)
			lof = append(lof, float64(time.Since(t)))
			if err != nil {
				return sc, fmt.Errorf("replay %s hop %d: %w", s.id, j, err)
			}
			if math.Float64bits(dec.Score) != math.Float64bits(r.Verdict.Score) {
				return sc, fmt.Errorf("replay %s hop %d: score %v, judged %v", s.id, j, dec.Score, r.Verdict.Score)
			}
			sc.hops++
		}
	}
	sc.chainNsPerSample, sc.peaksNs, sc.extractNs = median(chain), median(peaks), median(extract)
	sc.dtwNs, sc.lofNs = median(dtw), median(lof)
	return sc, nil
}

// smoothCall runs both signals of a call through fresh stream chains, as
// StreamDetector does, and returns the smoothed signals (the flushed
// tail included) and the mean cost of one chain Push.
func smoothCall(samples []guard.StreamSample, cfg preprocess.Config) (smTx, smRx []float64, nsPerPush float64, err error) {
	txc, err := preprocess.NewStreamChain(cfg)
	if err != nil {
		return nil, nil, 0, err
	}
	rxc, err := preprocess.NewStreamChain(cfg)
	if err != nil {
		return nil, nil, 0, err
	}
	start := time.Now()
	for _, s := range samples {
		if v, ok := txc.Push(s.Transmitted); ok {
			smTx = append(smTx, v)
		}
		if v, ok := rxc.Push(s.Received); ok {
			smRx = append(smRx, v)
		}
	}
	nsPerPush = float64(time.Since(start)) / float64(2*len(samples))
	return append(smTx, txc.Flush()...), append(smRx, rxc.Flush()...), nsPerPush, nil
}

// dtwInputs rebuilds the two half-window pairs ExtractWithDetail hands to
// DTWWindowed: delay removed, normalized to [0, 1], split in halves.
func dtwInputs(tx, rx *preprocess.Result, cfg features.Config) (t1, r1, t2, r2 []float64) {
	txTimes, rxTimes := tx.ChangeTimes(), rx.ChangeTimes()
	delay := features.EstimateDelay(txTimes, rxTimes, features.MatchChanges(txTimes, rxTimes, 0, cfg.MatchToleranceSamples))
	if delay < 0 {
		delay = 0
	}
	nt := dsp.NormalizeUnit(tx.Smoothed)
	nr := dsp.NormalizeUnit(dsp.Shift(rx.Smoothed, -delay))
	t1, t2 = dsp.SplitHalves(nt)
	r1, r2 = dsp.SplitHalves(nr)
	return t1, r1, t2, r2
}
