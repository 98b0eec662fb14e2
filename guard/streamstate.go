package guard

import (
	"fmt"

	"repro/internal/preprocess"
)

// streamStateVersion guards the serialized session-state layout.
// Bump it when StreamState changes shape incompatibly.
const streamStateVersion = 1

// StreamState is a StreamDetector parked mid-call: the filter-chain
// rings, the smoothed-window and flag rings, the hop cursor, and the
// running vote. Export captures it, Detector.ResumeStreamDetector
// rebuilds a detector that continues the stream exactly where the
// original stopped — the per-hop verdicts after a park/resume are
// bit-identical to an uninterrupted run (streamstate_test.go proves it
// with Float64bits comparisons).
//
// The trained model itself is NOT part of the state: session state is
// small and per-call, the model is large and shared. Resume pairs the
// state with the same trained Detector (persisted separately via Save).
type StreamState struct {
	// Version is the state-layout version (streamStateVersion).
	Version int `json:"version"`
	// Config is the resolved stream configuration the detector ran with.
	Config StreamConfig `json:"config"`

	Warm    int `json:"warm"`
	Raw     int `json:"raw"`
	Emitted int `json:"emitted"`
	NextEnd int `json:"next_end"`

	LastTx float64 `json:"last_tx"`
	LastRx float64 `json:"last_rx"`

	Flags []uint8   `json:"flags"`
	SmTx  []float64 `json:"sm_tx"`
	SmRx  []float64 `json:"sm_rx"`

	Finished bool `json:"finished"`

	Results      []WindowResult `json:"results"`
	AttackVotes  int            `json:"attack_votes"`
	Conclusive   int            `json:"conclusive"`
	Inconclusive int            `json:"inconclusive"`

	TxChain preprocess.ChainState `json:"tx_chain"`
	RxChain preprocess.ChainState `json:"rx_chain"`
}

// Export deep-copies the detector's live state for parking. The detector
// keeps running unaffected; Export at every hop is cheap relative to the
// judge itself (a few ring copies).
func (sd *StreamDetector) Export() StreamState {
	return StreamState{
		Version:      streamStateVersion,
		Config:       sd.cfg,
		Warm:         sd.warm,
		Raw:          sd.raw,
		Emitted:      sd.emitted,
		NextEnd:      sd.nextEnd,
		LastTx:       sd.lastTx,
		LastRx:       sd.lastRx,
		Flags:        append([]uint8(nil), sd.flags...),
		SmTx:         append([]float64(nil), sd.smTx...),
		SmRx:         append([]float64(nil), sd.smRx...),
		Finished:     sd.finished,
		Results:      append([]WindowResult(nil), sd.results...),
		AttackVotes:  sd.attackVotes,
		Conclusive:   sd.conclusive,
		Inconclusive: sd.inconclusive,
		TxChain:      sd.txChain.State(),
		RxChain:      sd.rxChain.State(),
	}
}

// Validate checks a parked state's internal consistency before it is
// trusted — rehydration paths run it so a damaged or hand-edited state
// fails loudly instead of corrupting a live session.
func (st StreamState) Validate() error {
	if st.Version != streamStateVersion {
		return &VersionError{What: "stream state", Got: st.Version, Want: streamStateVersion}
	}
	if err := st.Config.Validate(); err != nil {
		return fmt.Errorf("guard: parked stream state: %w", err)
	}
	w := st.Config.WindowSamples
	if len(st.SmTx) != w || len(st.SmRx) != w {
		return fmt.Errorf("guard: parked smoothed rings hold %d/%d samples, window is %d", len(st.SmTx), len(st.SmRx), w)
	}
	for _, c := range []struct {
		name string
		v    int
	}{
		{"warmup counter", st.Warm}, {"raw counter", st.Raw}, {"emitted counter", st.Emitted},
		{"attacker votes", st.AttackVotes}, {"conclusive count", st.Conclusive}, {"inconclusive count", st.Inconclusive},
	} {
		if c.v < 0 {
			return fmt.Errorf("guard: parked stream state has negative %s (%d)", c.name, c.v)
		}
	}
	if st.Warm > st.Config.WarmupSamples {
		return fmt.Errorf("guard: parked warmup counter %d exceeds configured warmup %d", st.Warm, st.Config.WarmupSamples)
	}
	if st.Emitted > st.Raw {
		return fmt.Errorf("guard: parked state emitted %d samples from %d raw inputs", st.Emitted, st.Raw)
	}
	if st.NextEnd < w-1 || (st.NextEnd-(w-1))%st.Config.HopSamples != 0 {
		return fmt.Errorf("guard: parked hop cursor %d is not on the hop grid (window %d, hop %d)", st.NextEnd, w, st.Config.HopSamples)
	}
	// The cursor must be the next hop end after the emitted samples: a
	// cursor behind them never matches again, one ahead skips hops.
	hop := st.Config.HopSamples
	if st.Emitted > st.NextEnd || (st.NextEnd > w-1 && st.Emitted <= st.NextEnd-hop) {
		return fmt.Errorf("guard: parked hop cursor %d disagrees with %d emitted samples (hop %d)", st.NextEnd, st.Emitted, hop)
	}
	if judged := (st.NextEnd - (w - 1)) / hop; len(st.Results) != judged {
		return fmt.Errorf("guard: parked state holds %d results, hop cursor implies %d", len(st.Results), judged)
	}
	if st.Conclusive+st.Inconclusive != len(st.Results) {
		return fmt.Errorf("guard: parked vote tallies (%d conclusive + %d inconclusive) disagree with %d results",
			st.Conclusive, st.Inconclusive, len(st.Results))
	}
	if st.AttackVotes > st.Conclusive {
		return fmt.Errorf("guard: parked state has %d attacker votes over %d conclusive hops", st.AttackVotes, st.Conclusive)
	}
	return nil
}

// ResumeStreamDetector rebuilds a StreamDetector from a parked state so
// the session continues exactly where Export left it. The detector d
// must be the same trained detector (same preprocess configuration) the
// state was captured under; mismatches are rejected by the chain-state
// validation. Damaged states return a typed error (*VersionError or a
// descriptive validation error) and never a half-initialized detector.
func (d *Detector) ResumeStreamDetector(st StreamState) (*StreamDetector, error) {
	if err := st.Validate(); err != nil {
		return nil, err
	}
	sd, err := d.NewStreamDetector(st.Config)
	if err != nil {
		return nil, err
	}
	if len(st.Flags) != len(sd.flags) {
		return nil, fmt.Errorf("guard: parked flag ring holds %d ticks, detector expects %d (chain latency changed?)",
			len(st.Flags), len(sd.flags))
	}
	if err := sd.txChain.Restore(st.TxChain); err != nil {
		return nil, fmt.Errorf("guard: transmitted chain: %w", err)
	}
	if err := sd.rxChain.Restore(st.RxChain); err != nil {
		return nil, fmt.Errorf("guard: received chain: %w", err)
	}
	sd.warm = st.Warm
	sd.raw = st.Raw
	sd.emitted = st.Emitted
	sd.nextEnd = st.NextEnd
	sd.lastTx, sd.lastRx = st.LastTx, st.LastRx
	copy(sd.flags, st.Flags)
	copy(sd.smTx, st.SmTx)
	copy(sd.smRx, st.SmRx)
	sd.finished = st.Finished
	sd.results = append([]WindowResult(nil), st.Results...)
	sd.attackVotes = st.AttackVotes
	sd.conclusive = st.Conclusive
	sd.inconclusive = st.Inconclusive
	return sd, nil
}
