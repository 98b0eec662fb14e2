package guard

import (
	"strings"
	"testing"
)

// Tumbling-window monitoring of a live call: StreamDetector with
// HopSamples == WindowSamples judges each disjoint 15 s window once, and
// the calls are fed as one continuous simulated session.

// tumblingConfig is the paper's windowing: disjoint 150-sample windows.
func tumblingConfig(warmup, minChallenges int) StreamConfig {
	cfg := DefaultStreamConfig()
	cfg.HopSamples = cfg.WindowSamples
	cfg.WarmupSamples = warmup
	cfg.MinChallenges = minChallenges
	return cfg
}

// callStream simulates one continuous call of sec seconds as annotated
// samples, letting mutate degrade tick i.
func callStream(t *testing.T, seed int64, peer PeerKind, sec float64, mutate func(i int, s *StreamSample)) []StreamSample {
	t.Helper()
	s, err := Simulate(SimOptions{Seed: seed, Peer: peer, DurationSec: sec})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]StreamSample, len(s.T))
	for i := range s.T {
		out[i] = StreamSample{Transmitted: s.T[i], Received: s.R[i]}
		if mutate != nil {
			mutate(i, &out[i])
		}
	}
	return out
}

// runCall pushes a whole call through a fresh detector and drains it at
// call end, returning the detector and every window result in order.
func runCall(t *testing.T, det *Detector, cfg StreamConfig, samples []StreamSample) (*StreamDetector, []WindowResult) {
	t.Helper()
	sd, err := det.NewStreamDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out []WindowResult
	for _, s := range samples {
		if r := sd.Push(s); r != nil {
			out = append(out, *r)
		}
	}
	return sd, append(out, sd.Finish()...)
}

// flatCall is n ticks of a verifier that never changes its screen.
func flatCall(n int) []StreamSample {
	out := make([]StreamSample, n)
	for i := range out {
		out[i] = StreamSample{Transmitted: 100, Received: 90}
	}
	return out
}

func TestMonitorGenuineStream(t *testing.T) {
	det := trainDetector(t)
	sd, results := runCall(t, det, tumblingConfig(0, 1), callStream(t, 9001, PeerGenuine, 30, nil))
	if len(results) != 2 {
		t.Fatalf("%d windows over a 30 s call, want 2", len(results))
	}
	for i, r := range results {
		if r.Inconclusive {
			t.Fatalf("genuine window %d inconclusive: %s", i, r.Reason)
		}
	}
	conclusive, inconclusive := sd.Windows()
	if conclusive != 2 || inconclusive != 0 {
		t.Errorf("windows = %d/%d, want 2 conclusive", conclusive, inconclusive)
	}
	flagged, err := sd.Flagged()
	if err != nil {
		t.Fatal(err)
	}
	if flagged {
		t.Error("genuine stream flagged")
	}
}

func TestMonitorAttackStream(t *testing.T) {
	det := trainDetector(t)
	sd, results := runCall(t, det, tumblingConfig(0, 1), callStream(t, 9101, PeerReenact, 45, nil))
	if len(results) != 3 {
		t.Fatalf("%d windows over a 45 s call, want 3", len(results))
	}
	flagged, err := sd.Flagged()
	if err != nil {
		t.Fatal(err)
	}
	if !flagged {
		t.Error("attack stream not flagged")
	}
}

func TestMonitorWarmupDiscards(t *testing.T) {
	det := trainDetector(t)
	samples := callStream(t, 9200, PeerGenuine, 30, nil)
	// 300 samples less 50 of warmup leave room for one window, not two.
	_, got := runCall(t, det, tumblingConfig(50, 0), samples)
	if len(got) != 1 {
		t.Fatalf("%d windows after a 50-sample warmup, want 1", len(got))
	}
	// The warmup samples never reach the pipeline: the window is the one
	// a detector without warmup judges over the remaining samples.
	_, want := runCall(t, det, tumblingConfig(0, 0), samples[50:])
	if len(want) != 1 || !sameWindowResult(got[0], want[0]) {
		t.Errorf("warmed-up window %+v, want %+v", got[0], want)
	}
}

func TestMonitorInconclusiveOnFlatChallenge(t *testing.T) {
	det := trainDetector(t)
	// A flat transmitted signal means the verifier never challenged.
	sd, results := runCall(t, det, tumblingConfig(0, 1), flatCall(300))
	if len(results) != 2 {
		t.Fatalf("%d windows, want 2", len(results))
	}
	for i, r := range results {
		if !r.Inconclusive {
			t.Fatalf("flat-challenge window %d judged conclusive: %+v", i, r)
		}
		if !strings.Contains(r.Reason, "challenges") {
			t.Errorf("reason %q does not mention challenges", r.Reason)
		}
	}
	if _, err := sd.Flagged(); err == nil {
		t.Error("Flagged() succeeded with zero conclusive windows")
	}
}

func TestMonitorResultsCopied(t *testing.T) {
	det := trainDetector(t)
	sd, err := det.NewStreamDetector(tumblingConfig(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if got := sd.Results(); len(got) != 0 {
		t.Errorf("fresh detector has %d results", len(got))
	}
	sd, _ = runCall(t, det, tumblingConfig(0, 1), callStream(t, 9300, PeerGenuine, 30, nil))
	got := sd.Results()
	if len(got) == 0 {
		t.Fatal("no windows judged")
	}
	got[0].Reason = "overwritten"
	rep, err := sd.Report()
	if err != nil {
		t.Fatal(err)
	}
	rep.Results[0].Code = ReasonStale
	if again := sd.Results(); again[0].Reason == "overwritten" || again[0].Code == ReasonStale {
		t.Errorf("Results and Report share the detector's history: %+v", again[0])
	}
}
