package guard

import (
	"math"
	"strings"
	"testing"

	"repro/internal/preprocess"
)

// --- NaN/Inf input hygiene (Detect / Train) ---

func TestDetectRejectsNonFinite(t *testing.T) {
	det := trainDetector(t)
	s, err := Simulate(SimOptions{Seed: 31, Peer: PeerGenuine})
	if err != nil {
		t.Fatal(err)
	}

	tx := append([]float64(nil), s.T...)
	tx[17] = math.NaN()
	_, err = det.Detect(tx, s.R)
	if err == nil {
		t.Fatal("NaN transmitted sample accepted")
	}
	for _, want := range []string{"transmitted", "sample 17", "non-finite"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}

	rx := append([]float64(nil), s.R...)
	rx[3] = math.Inf(1)
	_, err = det.Detect(s.T, rx)
	if err == nil || !strings.Contains(err.Error(), "received") {
		t.Errorf("Inf received sample: err = %v, want received-signal rejection", err)
	}
}

func TestTrainRejectsNonFinite(t *testing.T) {
	sessions, err := SimulateMany(SimOptions{Seed: 1, Peer: PeerGenuine}, 8)
	if err != nil {
		t.Fatal(err)
	}
	var train []Session
	for _, s := range sessions {
		train = append(train, Session{Transmitted: s.T, Received: s.R})
	}
	train[4].Received = append([]float64(nil), train[4].Received...)
	train[4].Received[9] = math.NaN()
	_, err = Train(DefaultOptions(), train)
	if err == nil {
		t.Fatal("training set with NaN accepted")
	}
	for _, want := range []string{"session 4", "received", "sample 9"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

// --- Tumbling-window inconclusive paths, pinning Reason codes and strings ---

func TestMonitorInconclusiveNoChallenge(t *testing.T) {
	det := trainDetector(t)
	_, results := runCall(t, det, tumblingConfig(0, 1), flatCall(150))
	if len(results) != 1 || !results[0].Inconclusive {
		t.Fatalf("flat window conclusive: %+v", results)
	}
	last := results[0]
	if last.Code != ReasonNoChallenge {
		t.Errorf("code = %v, want ReasonNoChallenge", last.Code)
	}
	if !strings.HasPrefix(last.Reason, "no challenge") {
		t.Errorf("reason %q does not start with pinned label %q", last.Reason, "no challenge")
	}
	if last.Quality != 1 {
		t.Errorf("clean flat window quality = %v, want 1", last.Quality)
	}
}

func TestMonitorInconclusiveGapHeavy(t *testing.T) {
	det := trainDetector(t)
	// Stall a third of the call: every third tick delivers nothing.
	_, results := runCall(t, det, tumblingConfig(0, 1), callStream(t, 51, PeerGenuine, 30, func(i int, s *StreamSample) {
		if i%3 == 0 {
			s.Transmitted = math.NaN()
			s.Received = math.NaN()
		}
	}))
	if len(results) != 2 {
		t.Fatalf("%d windows, want 2", len(results))
	}
	for _, last := range results {
		if !last.Inconclusive {
			t.Fatalf("gap-heavy window conclusive: %+v", last)
		}
		if last.Code != ReasonGapRatio {
			t.Errorf("code = %v, want ReasonGapRatio", last.Code)
		}
		if !strings.HasPrefix(last.Reason, "gap ratio") {
			t.Errorf("reason %q does not start with pinned label %q", last.Reason, "gap ratio")
		}
		if last.Quality >= 0.8 {
			t.Errorf("quality = %v for a window with ~33%% gaps", last.Quality)
		}
		if last.Gaps == 0 {
			t.Error("gap count not reported")
		}
	}
}

func TestMonitorInconclusiveLandmarkLoss(t *testing.T) {
	det := trainDetector(t)
	_, results := runCall(t, det, tumblingConfig(0, 1), callStream(t, 52, PeerGenuine, 30, func(i int, s *StreamSample) {
		if i >= 30 && i < 90 { // a 6-second landmark outage in the first window
			s.LandmarkLost = true
		}
	}))
	if len(results) == 0 || !results[0].Inconclusive {
		t.Fatalf("landmark-outage window conclusive: %+v", results)
	}
	first := results[0]
	if first.Code != ReasonLandmarkLoss {
		t.Errorf("code = %v, want ReasonLandmarkLoss", first.Code)
	}
	if !strings.HasPrefix(first.Reason, "landmark loss") {
		t.Errorf("reason %q does not start with pinned label %q", first.Reason, "landmark loss")
	}
}

func TestMonitorInconclusiveStale(t *testing.T) {
	det := trainDetector(t)
	// A frozen stream: every other frame is a repeat, 75 of each window's
	// 150 ticks.
	samples := callStream(t, 53, PeerGenuine, 30, func(i int, s *StreamSample) {
		s.Stale = i%2 == 1
	})
	// Exactly at the 0.5 bound the windows are still judged.
	_, results := runCall(t, det, tumblingConfig(0, 1), samples)
	for _, r := range results {
		if r.Inconclusive && r.Code == ReasonStale {
			t.Fatalf("stale ratio at the bound should still judge, got %+v", r)
		}
	}
	cfg := tumblingConfig(0, 1)
	cfg.MaxStaleRatio = 0.3
	_, results = runCall(t, det, cfg, samples)
	if len(results) != 2 {
		t.Fatalf("%d windows, want 2", len(results))
	}
	for _, last := range results {
		if !last.Inconclusive {
			t.Fatalf("stale-heavy window conclusive: %+v", last)
		}
		if last.Code != ReasonStale {
			t.Errorf("code = %v, want ReasonStale", last.Code)
		}
		if !strings.HasPrefix(last.Reason, "stale samples") {
			t.Errorf("reason %q does not start with pinned label %q", last.Reason, "stale samples")
		}
	}
}

func TestMonitorGapsDoNotPoisonNextWindow(t *testing.T) {
	det := trainDetector(t)
	// First window: gap-heavy. Second window: clean genuine stream.
	_, results := runCall(t, det, tumblingConfig(0, 1), callStream(t, 55, PeerGenuine, 30, func(i int, s *StreamSample) {
		s.LandmarkLost = i < 150 && i%2 == 0
	}))
	if len(results) != 2 {
		t.Fatalf("%d windows, want 2", len(results))
	}
	if first := results[0]; first.Code != ReasonLandmarkLoss {
		t.Fatalf("first window = %+v, want landmark loss", first)
	}
	second := results[1]
	if second.Inconclusive {
		t.Fatalf("clean window after degraded one judged inconclusive: %s", second.Reason)
	}
	if second.Quality != 1 {
		t.Errorf("clean window quality = %v, want 1 (per-window counts must not carry over)", second.Quality)
	}
}

func TestReasonCodeStrings(t *testing.T) {
	// Parked states store Code as an integer, so the numbers are pinned
	// as well as the labels; reserved codes keep their slots.
	want := []struct {
		code  ReasonCode
		num   int
		label string
	}{
		{ReasonNone, 0, "none"},
		{ReasonExtraction, 1, "extraction failed"},
		{ReasonNoChallenge, 2, "no challenge"},
		{ReasonGapRatio, 3, "gap ratio"},
		{ReasonLandmarkLoss, 4, "landmark loss"},
		{ReasonStale, 5, "stale samples"},
		{ReasonShortWindow, 6, "short window"},
		{ReasonOverload, 7, "overload"},
	}
	for _, w := range want {
		if int(w.code) != w.num {
			t.Errorf("%s = %d, want %d", w.label, int(w.code), w.num)
		}
		if w.code.String() != w.label {
			t.Errorf("%d.String() = %q, want %q", int(w.code), w.code.String(), w.label)
		}
	}
	if got := ReasonCode(99).String(); got != "ReasonCode(99)" {
		t.Errorf("unknown code = %q", got)
	}
}

// --- DetectSamples: timestamped, lossy windows ---

// sessionSamples converts a simulated session into timestamped streams.
func sessionSamples(t *testing.T, seed int64, peer PeerKind) (tx, rx []preprocess.Sample, fs float64) {
	t.Helper()
	s, err := Simulate(SimOptions{Seed: seed, Peer: peer})
	if err != nil {
		t.Fatal(err)
	}
	for i := range s.T {
		ts := float64(i) / s.Fs
		tx = append(tx, preprocess.Sample{T: ts, V: s.T[i]})
		rx = append(rx, preprocess.Sample{T: ts, V: s.R[i]})
	}
	return tx, rx, s.Fs
}

func TestDetectSamplesCleanMatchesDetect(t *testing.T) {
	det := trainDetector(t)
	tx, rx, _ := sessionSamples(t, 61, PeerGenuine)
	res, err := det.DetectSamples(tx, rx, StreamQuality{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inconclusive {
		t.Fatalf("clean window inconclusive: %s", res.Reason)
	}
	if res.Quality != 1 {
		t.Errorf("clean quality = %v, want 1", res.Quality)
	}
	s, err := Simulate(SimOptions{Seed: 61, Peer: PeerGenuine})
	if err != nil {
		t.Fatal(err)
	}
	want, err := det.Detect(s.T, s.R)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != want {
		t.Errorf("resampled verdict %+v != direct %+v", res.Verdict, want)
	}
}

func TestDetectSamplesGapHeavyInconclusive(t *testing.T) {
	det := trainDetector(t)
	tx, rx, _ := sessionSamples(t, 62, PeerGenuine)
	// Cut a 5-second hole out of the received stream.
	cut := append([]preprocess.Sample(nil), rx[:40]...)
	cut = append(cut, rx[90:]...)
	res, err := det.DetectSamples(tx, cut, StreamQuality{MaxGapSec: 0.5, MaxGapRatio: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Inconclusive || res.Code != ReasonGapRatio {
		t.Fatalf("gap-heavy window = %+v, want ReasonGapRatio", res)
	}
	if res.Quality >= 0.8 {
		t.Errorf("quality = %v with a 5 s hole", res.Quality)
	}
}

func TestDetectSamplesNaNBurstDegrades(t *testing.T) {
	det := trainDetector(t)
	tx, rx, _ := sessionSamples(t, 63, PeerGenuine)
	for i := 50; i < 100; i++ { // a long NaN burst becomes a long gap
		rx[i].V = math.NaN()
	}
	res, err := det.DetectSamples(tx, rx, StreamQuality{MaxGapSec: 0.5, MaxGapRatio: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Inconclusive {
		t.Fatal("NaN-burst window judged conclusively")
	}
	if res.Code != ReasonGapRatio {
		t.Errorf("code = %v, want ReasonGapRatio", res.Code)
	}
}

func TestDetectSamplesTolerableJitter(t *testing.T) {
	det := trainDetector(t)
	tx, rx, _ := sessionSamples(t, 64, PeerGenuine)
	// Drop every 20th received sample and swap one pair: well within bounds.
	var lossy []preprocess.Sample
	for i, s := range rx {
		if i%20 == 10 {
			continue
		}
		lossy = append(lossy, s)
	}
	lossy[5], lossy[6] = lossy[6], lossy[5]
	res, err := det.DetectSamples(tx, lossy, StreamQuality{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inconclusive {
		t.Fatalf("mildly lossy window inconclusive: %s", res.Reason)
	}
}

func TestDetectSamplesStructuralError(t *testing.T) {
	det := trainDetector(t)
	if _, err := det.DetectSamples(nil, nil, StreamQuality{}); err == nil {
		t.Error("empty streams accepted")
	}
	if _, err := det.DetectSamples(nil, nil, StreamQuality{MaxGapRatio: 2}); err == nil {
		t.Error("invalid quality bound accepted")
	}
}

// --- batch panic containment ---

func TestBatchContainsPanics(t *testing.T) {
	det := trainDetector(t)
	b, err := det.Batch(4)
	if err != nil {
		t.Fatal(err)
	}
	results := b.run(8, func(i int) (Verdict, error) {
		if i == 3 || i == 6 {
			panic("injected")
		}
		return Verdict{Score: float64(i)}, nil
	})
	for i, r := range results {
		if i == 3 || i == 6 {
			if r.Err == nil || !strings.Contains(r.Err.Error(), "panicked") {
				t.Errorf("window %d: err = %v, want contained panic", i, r.Err)
			}
			continue
		}
		if r.Err != nil {
			t.Errorf("window %d failed: %v", i, r.Err)
		}
		if r.Verdict.Score != float64(i) {
			t.Errorf("window %d score = %v", i, r.Verdict.Score)
		}
	}
}

func TestTrainContainsPanicMessage(t *testing.T) {
	// A panic inside per-session extraction must surface as that
	// session's error, not crash the training pool. Train's signal
	// validation makes a natural panic hard to provoke, so this pins the
	// containment path at the batch level instead and the message shape.
	det := trainDetector(t)
	b, err := det.Batch(1)
	if err != nil {
		t.Fatal(err)
	}
	res := b.run(1, func(int) (Verdict, error) { panic(42) })
	if res[0].Err == nil || !strings.Contains(res[0].Err.Error(), "42") {
		t.Errorf("err = %v, want the panic value in the message", res[0].Err)
	}
}
