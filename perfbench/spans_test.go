package main

import (
	"testing"
	"time"
)

func TestCovered(t *testing.T) {
	cases := []struct {
		ivs    [][2]int64
		lo, hi int64
		want   int64
	}{
		{nil, 0, 100, 0},
		{[][2]int64{{10, 20}}, 0, 100, 10},
		{[][2]int64{{10, 20}, {30, 45}}, 0, 100, 25},
		{[][2]int64{{10, 30}, {20, 40}}, 0, 100, 30},           // overlapping children count once
		{[][2]int64{{20, 40}, {10, 30}, {35, 36}}, 0, 100, 30}, // unsorted, nested
		{[][2]int64{{-5, 10}, {90, 120}}, 0, 100, 20},          // clipped to the parent
		{[][2]int64{{0, 100}, {10, 20}}, 0, 100, 100},
	}
	for i, c := range cases {
		if got := covered(c.ivs, c.lo, c.hi); got != c.want {
			t.Errorf("case %d: covered = %d, want %d", i, got, c.want)
		}
	}
}

// TestSelfTime nests spans on one host: an inner span holding two
// overlapping leaves (calls from two goroutines of the host), a leaf after
// it inside the outer span, and a leaf on another host outside any span.
func TestSelfTime(t *testing.T) {
	tr := NewTracer(2)
	tr.SetOn(true)
	tr.SetRequest(0, 7)
	outer := tr.Begin(0, "outer")
	inner := tr.Begin(0, "inner")
	i0 := inner.Start
	tr.Leaf(0, "leaf", i0+5, i0+15)
	tr.Leaf(0, "leaf", i0+10, i0+20) // overlaps the previous leaf
	time.Sleep(time.Millisecond)
	tr.End(0, inner)
	tr.Leaf(0, "leaf", inner.End+10, inner.End+30)
	time.Sleep(time.Millisecond)
	tr.End(0, outer)
	tr.Leaf(1, "leaf", 0, 50) // other host, no open span: a root

	spans := map[uint64]Span{}
	for _, l := range tr.lanes {
		for _, s := range l.stored {
			spans[s.ID] = s
		}
	}
	in, out := spans[inner.ID], spans[outer.ID]
	if want := (in.End - in.Start) - 15; in.Self != want {
		t.Errorf("inner self = %d, want %d (duration minus the union of its leaves)", in.Self, want)
	}
	// The outer span's children are the first leaf and the inner span;
	// they do not overlap.
	if want := (out.End - out.Start) - 20 - (in.End - in.Start); out.Self != want {
		t.Errorf("outer self = %d, want %d", out.Self, want)
	}
	if in.Parent != outer.ID || out.Parent != 0 {
		t.Errorf("parents: inner %d outer %d, want %d and 0", in.Parent, out.Parent, outer.ID)
	}
	for _, s := range spans {
		switch {
		case s.Host == 0 && s.Req != 7:
			t.Errorf("span %s on host 0 has request %d, want 7", s.Name, s.Req)
		case s.Host == 1 && s.Parent != 0:
			t.Errorf("host 1 leaf has parent %d", s.Parent)
		}
	}
	if got := tr.TakeSelf("inner", 7); got != time.Duration(in.Self) {
		t.Errorf("TakeSelf = %v, want %v", got, time.Duration(in.Self))
	}
	if got := tr.TakeSelf("inner", 7); got != 0 {
		t.Errorf("second TakeSelf = %v, want 0", got)
	}
	if n := tr.Count("leaf"); n != 4 {
		t.Errorf("Count(leaf) = %d, want 4", n)
	}
}

func TestMedianNsWeighsHosts(t *testing.T) {
	tr := NewTracer(2)
	for i := 0; i < 3; i++ {
		tr.Leaf(0, "x", 0, 100)
	}
	tr.Leaf(1, "x", 0, 900)
	if got := tr.MedianNs("x"); got != 100 {
		t.Errorf("median = %v, want 100", got)
	}
	if got := tr.MedianNs("absent"); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := quantile(xs, 0.5); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := geomean([]float64{1, 4}); got != 2 {
		t.Errorf("geomean = %v, want 2", got)
	}
	inf := []float64{1, 2, 3, 1 / zero()}
	if got := quantile(inf, 0.99); got < 1e300 {
		t.Errorf("p99 with a failed query = %v, want +Inf", got)
	}
}

func zero() float64 { return 0 }
