package main

import (
	"math"
	"testing"
	"time"
)

func TestSelfTimeArithmetic(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Unit: 0, Name: unitSpan, Start: 0, End: 100},
		{ID: 1, Parent: 0, Unit: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Unit: 0, Name: "b", Start: 30, End: 60},  // overlaps a: counted once
		{ID: 3, Parent: 0, Unit: 0, Name: "c", Start: 90, End: 130}, // clipped to the parent's end
		{ID: 4, Parent: 1, Unit: 0, Name: "a.kid", Start: 10, End: 25},
		{ID: 5, Parent: -1, Unit: -1, Name: "setup", Start: 0, End: 1000}, // outside any unit
	}
	self := selfTimes(spans)
	want := []int64{100 - (50 + 10), 30 - 15, 30, 40, 15, 1000}
	for i, w := range want {
		if self[i] != w {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spans[i].Name, self[i], w)
		}
	}
	shares, loose := layerShares(spans)
	if math.Abs(loose-0.40) > 1e-12 {
		t.Errorf("unaccounted share = %v, want 0.40", loose)
	}
	if _, ok := shares["setup"]; ok {
		t.Error("a span outside any unit entered the share table")
	}
	if math.Abs(shares["a"]-0.15) > 1e-12 || math.Abs(shares["a.kid"]-0.15) > 1e-12 {
		t.Errorf("shares = %v, want a and a.kid at 0.15", shares)
	}
}

func TestSynthClipsToParent(t *testing.T) {
	tr := newTracer()
	root := tr.begin(-1, 3, unitSpan)
	time.Sleep(2 * time.Millisecond)
	tr.end(root)
	inside := tr.synth(root, "heap.gc", 0, time.Millisecond)
	over := tr.synth(root, "stall", time.Millisecond, time.Hour)
	past := tr.synth(root, "late", time.Hour, time.Second)
	spans := tr.snapshot()
	p := spans[root]
	if s := spans[inside]; s.Start != p.Start || s.End-s.Start != int64(time.Millisecond) || !s.Synth || s.Unit != 3 {
		t.Errorf("synthesised span = %+v inside parent %+v", s, p)
	}
	if s := spans[over]; s.End != p.End {
		t.Errorf("overlong synthesised span ends at %d, parent at %d", s.End, p.End)
	}
	if s := spans[past]; s.Start != p.End || s.End != p.End {
		t.Errorf("synthesised span past the parent = %+v, want empty at %d", s, p.End)
	}
	for _, v := range selfTimes(spans) {
		if v < 0 {
			t.Errorf("negative self time in %v", selfTimes(spans))
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin(-1, 0, unitSpan)
	tr.end(id)
	if got := tr.synth(id, "x", 0, time.Second); got != -1 {
		t.Errorf("synth on a nil tracer = %d, want -1", got)
	}
	if tr.snapshot() != nil {
		t.Error("nil tracer has spans")
	}
}
