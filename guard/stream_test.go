package guard

import (
	"math"
	"math/rand"
	"testing"
)

// The incremental StreamDetector must reproduce DetectStreamBatch — the
// simple batch reference — bit for bit: same hop grid, same smoothed
// samples, same flag tallies, same verdicts. These tests drive both paths
// over clean, adversarial and degraded streams and demand exact
// WindowResult equality.

// sameWindowResult compares two results bitwise (NaN-safe on the float
// fields, exact on everything else).
func sameWindowResult(a, b WindowResult) bool {
	if a.Inconclusive != b.Inconclusive || a.Code != b.Code || a.Reason != b.Reason ||
		a.Challenges != b.Challenges || a.Gaps != b.Gaps || a.Stale != b.Stale {
		return false
	}
	if math.Float64bits(a.Quality) != math.Float64bits(b.Quality) {
		return false
	}
	if a.Verdict.Attacker != b.Verdict.Attacker ||
		math.Float64bits(a.Verdict.Score) != math.Float64bits(b.Verdict.Score) {
		return false
	}
	for i := range a.Verdict.Features {
		if math.Float64bits(a.Verdict.Features[i]) != math.Float64bits(b.Verdict.Features[i]) {
			return false
		}
	}
	return true
}

// cleanStream concatenates simulated sessions into one annotated stream.
func cleanStream(t *testing.T, seed int64, peer PeerKind, sessions int) []StreamSample {
	t.Helper()
	var out []StreamSample
	for i := 0; i < sessions; i++ {
		s, err := Simulate(SimOptions{Seed: seed + int64(i), Peer: peer})
		if err != nil {
			t.Fatal(err)
		}
		for j := range s.T {
			out = append(out, StreamSample{Transmitted: s.T[j], Received: s.R[j]})
		}
	}
	return out
}

// degradeStream injects seeded capture faults — NaN/Inf values on either
// signal, landmark-loss spans, stale ticks — without touching the
// underlying luminance when a tick survives.
func degradeStream(samples []StreamSample, seed int64) []StreamSample {
	rng := rand.New(rand.NewSource(seed))
	out := make([]StreamSample, len(samples))
	copy(out, samples)
	lmLeft := 0
	for i := range out {
		if lmLeft > 0 {
			lmLeft--
			out[i].LandmarkLost = true
			out[i].Received = math.NaN()
			continue
		}
		switch {
		case rng.Float64() < 0.01:
			lmLeft = 2 + rng.Intn(4)
			out[i].LandmarkLost = true
			out[i].Received = math.NaN()
		case rng.Float64() < 0.02:
			out[i].Received = math.NaN()
		case rng.Float64() < 0.01:
			out[i].Transmitted = math.Inf(1)
		case rng.Float64() < 0.05:
			out[i].Stale = true
		}
	}
	return out
}

func TestStreamDetectorMatchesBatchReference(t *testing.T) {
	det := trainDetector(t)

	genuine := cleanStream(t, 41000, PeerGenuine, 3)
	attacker := cleanStream(t, 42000, PeerReenact, 3)
	streams := map[string][]StreamSample{
		"genuine":           genuine,
		"attacker":          attacker,
		"genuine-degraded":  degradeStream(genuine, 7),
		"attacker-degraded": degradeStream(attacker, 8),
		"leading-nan": append([]StreamSample{
			{Transmitted: math.NaN(), Received: math.NaN(), LandmarkLost: true},
			{Transmitted: math.NaN(), Received: math.NaN()},
		}, genuine...),
	}
	configs := map[string]StreamConfig{
		"default":     DefaultStreamConfig(),
		"hop-1":       {WindowSamples: 150, HopSamples: 1, WarmupSamples: 30, MinChallenges: 1},
		"tumbling":    {WindowSamples: 150, HopSamples: 150, WarmupSamples: 0, MinChallenges: 1},
		"odd-sizes":   {WindowSamples: 97, HopSamples: 13, WarmupSamples: 11, MinChallenges: 1, MaxGapRatio: 0.3, MaxStaleRatio: 0.4},
		"unbanded":    {WindowSamples: 150, HopSamples: 25, WarmupSamples: 30, MinChallenges: 1, DTWBandRadius: -1},
		"strict-gaps": {WindowSamples: 120, HopSamples: 30, WarmupSamples: 0, MinChallenges: 2, MaxGapRatio: 0.05, MaxStaleRatio: 0.1},
	}
	for sname, samples := range streams {
		for cname, cfg := range configs {
			batch, err := det.DetectStreamBatch(samples, cfg)
			if err != nil {
				t.Fatalf("%s/%s: batch: %v", sname, cname, err)
			}
			sd, err := det.NewStreamDetector(cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", sname, cname, err)
			}
			var inc []WindowResult
			for _, s := range samples {
				if r := sd.Push(s); r != nil {
					inc = append(inc, *r)
				}
			}
			inc = append(inc, sd.Finish()...)
			if len(inc) != len(batch) {
				t.Fatalf("%s/%s: %d incremental hops, %d batch", sname, cname, len(inc), len(batch))
			}
			for i := range inc {
				if !sameWindowResult(inc[i], batch[i]) {
					t.Fatalf("%s/%s hop %d:\nincremental %+v\nbatch       %+v", sname, cname, i, inc[i], batch[i])
				}
			}
			if got := sd.Results(); len(got) != len(batch) {
				t.Fatalf("%s/%s: Results() has %d hops, want %d", sname, cname, len(got), len(batch))
			}
		}
	}
}

func TestStreamDetectorAccounting(t *testing.T) {
	det := trainDetector(t)
	sd, err := det.NewStreamDetector(DefaultStreamConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sd.Flagged(); err == nil {
		t.Error("Flagged succeeded with no conclusive windows")
	}
	samples := cleanStream(t, 43000, PeerReenact, 2)
	for _, s := range samples {
		sd.Push(s)
	}
	sd.Finish()
	if extra := sd.Finish(); extra != nil {
		t.Errorf("second Finish returned %d results", len(extra))
	}
	conclusive, inconclusive := sd.Windows()
	if conclusive+inconclusive != len(sd.Results()) {
		t.Errorf("windows %d+%d != %d results", conclusive, inconclusive, len(sd.Results()))
	}
	if conclusive == 0 {
		t.Fatal("no conclusive windows on a clean attacker stream")
	}
	flagged, err := sd.Flagged()
	if err != nil {
		t.Fatal(err)
	}
	if !flagged {
		t.Error("clean reenactment stream not flagged")
	}
	if lat := sd.Latency(); lat < 1 {
		t.Errorf("latency %d, want positive", lat)
	}
	defer func() {
		if recover() == nil {
			t.Error("Push after Finish did not panic")
		}
	}()
	sd.Push(StreamSample{})
}

func TestStreamConfigValidate(t *testing.T) {
	base := DefaultStreamConfig()
	bad := []func(*StreamConfig){
		func(c *StreamConfig) { c.WindowSamples = 39 },
		func(c *StreamConfig) { c.HopSamples = 0 },
		func(c *StreamConfig) { c.HopSamples = c.WindowSamples + 1 },
		func(c *StreamConfig) { c.WarmupSamples = -1 },
		func(c *StreamConfig) { c.MinChallenges = -1 },
		func(c *StreamConfig) { c.MaxGapRatio = math.NaN() },
		func(c *StreamConfig) { c.MaxGapRatio = 1.5 },
		func(c *StreamConfig) { c.MaxGapRatio = -0.1 },
		func(c *StreamConfig) { c.MaxStaleRatio = math.NaN() },
		func(c *StreamConfig) { c.MaxStaleRatio = math.Inf(1) },
	}
	for i, mutate := range bad {
		cfg := base
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted: %+v", i, cfg)
		}
	}
	if err := base.Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
	det := trainDetector(t)
	if _, err := det.NewStreamDetector(StreamConfig{}); err == nil {
		t.Error("zero StreamConfig accepted")
	}
}

// Regression: StreamQuality used to default before validating, so NaN
// bounds (for which every range check is false) sailed through into the
// resampler. Validation now runs first and rejects non-finite values.
func TestStreamQualityRejectsNonFinite(t *testing.T) {
	det := trainDetector(t)
	tx, rx, _ := sessionSamples(t, 44000, PeerGenuine)
	for _, q := range []StreamQuality{
		{MaxGapSec: math.NaN()},
		{MaxGapSec: math.Inf(1)},
		{MaxGapSec: -1},
		{MaxGapRatio: math.NaN()},
		{MaxGapRatio: math.Inf(1)},
		{MaxGapRatio: -0.2},
	} {
		if _, err := det.DetectSamples(tx, rx, q); err == nil {
			t.Errorf("quality %+v accepted", q)
		}
	}
	// The zero value still means the defaults.
	if _, err := det.DetectSamples(tx, rx, StreamQuality{}); err != nil {
		t.Errorf("zero quality rejected: %v", err)
	}
}
