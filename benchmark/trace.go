package main

import (
	"sort"
	"sync"
	"time"
)

// span is one recorded interval: a call from the benchmark into a layer's
// exported function, or (Synth) an interval the benchmark cannot call
// around — GC inside a run, tier stalls, daemon queueing — laid out inside
// its parent from the totals the layer publishes.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Unit   int    `json:"unit"`   // -1 outside any timed unit
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
	Synth  bool   `json:"synth,omitempty"`
}

// unitSpan names the root span of every timed unit.
const unitSpan = "unit"

// tracer is the in-memory span recorder. It lives in the benchmark only:
// spans are taken around calls into the layers, kept in memory, and
// written out when the run ends. A nil *tracer records nothing, so
// workload code is identical in the untraced and traced passes.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (-1 on a nil tracer).
func (t *tracer) begin(parent, unit int, name string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Unit: unit, Name: name, Start: now, End: now})
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// synth records a synthesised child of parent covering d, starting at
// offset into the parent and clipped to the parent's end. The parent must
// be closed. It returns the new span's ID.
func (t *tracer) synth(parent int, name string, offset, d time.Duration) int {
	if t == nil || parent < 0 {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent]
	start := p.Start + offset.Nanoseconds()
	if start > p.End {
		start = p.End
	}
	end := start + d.Nanoseconds()
	if end > p.End {
		end = p.End
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Unit: p.Unit, Name: name, Start: start, End: end, Synth: true})
	return id
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time in nanoseconds, indexed by span
// ID: its duration minus the part of that interval its direct children
// cover (overlapping children are not counted twice).
func selfTimes(spans []span) []int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// layerShares folds the spans of timed units into a per-name share table:
// each name's summed self time over the summed duration of the unit
// roots. The unit roots' own self time — wall time no child span covers —
// is returned separately as the unaccounted share.
func layerShares(spans []span) (shares map[string]float64, unaccounted float64) {
	self := selfTimes(spans)
	byName := make(map[string]int64)
	var total, loose int64
	for _, s := range spans {
		if s.Unit < 0 {
			continue
		}
		if s.Parent < 0 && s.Name == unitSpan {
			total += s.End - s.Start
			loose += self[s.ID]
			continue
		}
		byName[s.Name] += self[s.ID]
	}
	shares = make(map[string]float64, len(byName))
	if total == 0 {
		return shares, 0
	}
	for name, ns := range byName {
		shares[name] = float64(ns) / float64(total)
	}
	return shares, float64(loose) / float64(total)
}
