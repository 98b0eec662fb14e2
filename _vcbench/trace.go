package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one call the benchmark made into a layer. Spans live in
// memory for the whole run and are written out when it ends.
type span struct {
	Name   string        `json:"name"`
	Sess   int           `json:"sess"`   // session index, -1 when not per-session
	ID     int32         `json:"id"`     // 1-based within its tracer
	Parent int32         `json:"parent"` // 0 for a root span
	Verd   bool          `json:"verdict,omitempty"`
	Start  time.Duration `json:"start_ns"` // since the run's time origin
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer records spans for one owner. A disabled tracer costs one
// branch per call, so untraced runs measure the program, not the trace.
// The mutex is uncontended except during failover, where the survivor's
// handoff goroutine records PutBlob spans beside the coordinator.
type tracer struct {
	on    bool
	org   time.Time
	mu    sync.Mutex
	spans []span
}

// begin opens a span and returns its ID (0 when tracing is off).
func (t *tracer) begin(name string, sess int, parent int32) int32 {
	if !t.on {
		return 0
	}
	now := time.Since(t.org)
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{Name: name, Sess: sess, ID: id, Parent: parent, Start: now})
	t.mu.Unlock()
	return id
}

// end closes span id; verdict marks a Push that returned a hop result.
func (t *tracer) end(id int32, verdict bool) {
	if id == 0 {
		return
	}
	now := time.Since(t.org)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.spans[id-1].Verd = verdict
	t.mu.Unlock()
}

// selfTime is a span's duration minus the part of it that its child
// spans cover. Children may overlap one another; the covered time is
// the union of their intervals, clipped to the parent.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := c.Start, c.End
		if a < parent.Start {
			a = parent.Start
		}
		if b > parent.End {
			b = parent.End
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered time.Duration
	var curA, curB time.Duration
	open := false
	for _, v := range ivs {
		if open && v.a <= curB {
			if v.b > curB {
				curB = v.b
			}
			continue
		}
		if open {
			covered += curB - curA
		}
		curA, curB, open = v.a, v.b, true
	}
	if open {
		covered += curB - curA
	}
	return parent.dur() - covered
}

// selfTimes sums self time per span name over one tracer's spans.
func selfTimes(spans []span) map[string]time.Duration {
	kids := make(map[int32][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += selfTime(s, kids[s.ID])
	}
	return out
}

// writeSpans writes every tracer's spans as JSON lines, one object per
// span with its tracer index, so parent IDs resolve within a tracer.
func writeSpans(path string, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for ti, t := range tracers {
		for _, s := range t.spans {
			if err := enc.Encode(struct {
				Tracer int `json:"tracer"`
				span
			}{ti, s}); err != nil {
				f.Close()
				return fmt.Errorf("write spans: %w", err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
