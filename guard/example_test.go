package guard_test

import (
	"bytes"
	"fmt"
	"log"

	"repro/guard"
)

// Train a detector on genuine sessions and classify a fake stream.
func Example() {
	training, err := guard.SimulateMany(guard.SimOptions{Seed: 1, Peer: guard.PeerGenuine}, 20)
	if err != nil {
		log.Fatal(err)
	}
	detector, err := guard.TrainFromTraces(guard.DefaultOptions(), training)
	if err != nil {
		log.Fatal(err)
	}

	fake, err := guard.Simulate(guard.SimOptions{Seed: 42, Peer: guard.PeerReenact})
	if err != nil {
		log.Fatal(err)
	}
	verdict, err := detector.DetectTrace(fake)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("attacker:", verdict.Attacker)
	// Output: attacker: true
}

// Combine several detection windows with the paper's majority vote.
func ExampleDetector_CombineVerdicts() {
	training, err := guard.SimulateMany(guard.SimOptions{Seed: 1, Peer: guard.PeerGenuine}, 20)
	if err != nil {
		log.Fatal(err)
	}
	detector, err := guard.TrainFromTraces(guard.DefaultOptions(), training)
	if err != nil {
		log.Fatal(err)
	}
	var verdicts []guard.Verdict
	for seed := int64(100); seed < 105; seed++ {
		s, err := guard.Simulate(guard.SimOptions{Seed: seed, Peer: guard.PeerReenact})
		if err != nil {
			log.Fatal(err)
		}
		v, err := detector.DetectTrace(s)
		if err != nil {
			log.Fatal(err)
		}
		verdicts = append(verdicts, v)
	}
	flagged, err := detector.CombineVerdicts(verdicts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("flagged:", flagged)
	// Output: flagged: true
}

// Classify a backlog of recorded windows in parallel. Batch verdicts
// are bit-identical to a sequential Detect loop, in input order.
func ExampleDetector_Batch() {
	training, err := guard.SimulateMany(guard.SimOptions{Seed: 1, Peer: guard.PeerGenuine}, 20)
	if err != nil {
		log.Fatal(err)
	}
	detector, err := guard.TrainFromTraces(guard.DefaultOptions(), training)
	if err != nil {
		log.Fatal(err)
	}

	var windows []guard.Session
	for i, kind := range []guard.PeerKind{guard.PeerGenuine, guard.PeerReenact, guard.PeerGenuine} {
		s, err := guard.Simulate(guard.SimOptions{Seed: int64(200 + i), Peer: kind})
		if err != nil {
			log.Fatal(err)
		}
		windows = append(windows, guard.Session{Transmitted: s.T, Received: s.R})
	}

	batch, err := detector.Batch(4) // 0 = runtime.GOMAXPROCS(0) workers
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range batch.Detect(windows) {
		if r.Err != nil {
			log.Fatal(r.Err)
		}
		fmt.Printf("window %d attacker: %v\n", r.Index, r.Verdict.Attacker)
	}
	// Output:
	// window 0 attacker: false
	// window 1 attacker: true
	// window 2 attacker: false
}

// Verify a live call in tumbling 15 s windows: a StreamDetector whose hop
// equals its window judges each disjoint window once.
func ExampleStreamDetector() {
	training, err := guard.SimulateMany(guard.SimOptions{Seed: 1, Peer: guard.PeerGenuine}, 20)
	if err != nil {
		log.Fatal(err)
	}
	detector, err := guard.TrainFromTraces(guard.DefaultOptions(), training)
	if err != nil {
		log.Fatal(err)
	}
	cfg := guard.DefaultStreamConfig()
	cfg.HopSamples = cfg.WindowSamples // 15 s at 10 Hz
	stream, err := detector.NewStreamDetector(cfg)
	if err != nil {
		log.Fatal(err)
	}
	call, err := guard.Simulate(guard.SimOptions{Seed: 7, Peer: guard.PeerGenuine, DurationSec: 45})
	if err != nil {
		log.Fatal(err)
	}
	for i := range call.T {
		stream.Push(guard.StreamSample{Transmitted: call.T[i], Received: call.R[i]})
	}
	stream.Finish() // drain the filter latency at call end
	report, err := stream.Report()
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range report.Results {
		if !r.Inconclusive {
			fmt.Println("window attacker:", r.Verdict.Attacker)
		}
	}
	fmt.Println("flagged:", report.Flagged)
	// Output:
	// window attacker: false
	// window attacker: false
	// flagged: false
}

// Persist a trained detector and reload it elsewhere.
func ExampleDetector_Save() {
	training, err := guard.SimulateMany(guard.SimOptions{Seed: 1, Peer: guard.PeerGenuine}, 20)
	if err != nil {
		log.Fatal(err)
	}
	detector, err := guard.TrainFromTraces(guard.DefaultOptions(), training)
	if err != nil {
		log.Fatal(err)
	}
	var buf bytes.Buffer
	if err := detector.Save(&buf); err != nil {
		log.Fatal(err)
	}
	reloaded, err := guard.Load(&buf)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("threshold preserved:", reloaded.Threshold() == detector.Threshold())
	// Output: threshold preserved: true
}
