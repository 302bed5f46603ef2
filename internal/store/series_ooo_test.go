package store

import (
	"testing"
	"time"
)

// Regression tests for the out-of-order contract on a TSDB series:
// late samples are stored, counted, and Range repairs the order.

func TestSeriesOutOfOrderDetected(t *testing.T) {
	s := NewTSDB().Series("plant/temp")
	s.Append(Point{T: secs(1), V: 1})
	s.Append(Point{T: secs(3), V: 3})
	s.Append(Point{T: secs(2), V: 2}) // late
	s.Append(Point{T: secs(3), V: 3.5})
	if s.OutOfOrder() != 1 {
		t.Fatalf("OutOfOrder = %d, want 1 (equal timestamps are in order)", s.OutOfOrder())
	}
	if s.Total() != 4 || s.Len() != 4 {
		t.Fatalf("late sample dropped: Total=%d Len=%d", s.Total(), s.Len())
	}
}

func TestSeriesRangeSortsOutOfOrder(t *testing.T) {
	s := NewTSDB().Series("plant/temp")
	for _, i := range []int{1, 4, 2, 3} {
		s.Append(Point{T: secs(i), V: float64(i)})
	}
	got := s.Range(0, time.Hour)
	for i, p := range got {
		if p.T != secs(i+1) {
			t.Fatalf("Range not time-sorted: %+v", got)
		}
	}
	// Bounded ranges sort too.
	got = s.Range(secs(2), secs(4))
	if len(got) != 2 || got[0].V != 2 || got[1].V != 3 {
		t.Fatalf("bounded Range = %+v", got)
	}
}

func TestSeriesRangeStableForEqualTimestamps(t *testing.T) {
	s := NewTSDB().Series("plant/temp")
	s.Append(Point{T: secs(2), V: 1}) // first arrival at T=2s
	s.Append(Point{T: secs(1), V: 0}) // late: forces the sort path
	s.Append(Point{T: secs(2), V: 2}) // second arrival at T=2s
	got := s.Range(0, time.Hour)
	if len(got) != 3 || got[0].V != 0 || got[1].V != 1 || got[2].V != 2 {
		t.Fatalf("equal-T arrival order broken: %+v", got)
	}
}

func TestSeriesRangeInOrderFastPathUnchanged(t *testing.T) {
	// With no out-of-order arrivals Range is exactly arrival order,
	// across closed segments and the open head.
	s := NewTSDB().Series("plant/temp")
	n := 2*DefaultSegmentSize + 5
	for i := 0; i < n; i++ {
		s.Append(Point{T: secs(i), V: float64(i)})
	}
	got := s.Range(0, secs(n))
	if len(got) != n || got[0].V != 0 || got[n-1].V != float64(n-1) {
		t.Fatalf("Range returned %d points", len(got))
	}
	for i, p := range got {
		if p.V != float64(i) {
			t.Fatalf("point %d = %+v, want arrival order", i, p)
		}
	}
	if s.OutOfOrder() != 0 {
		t.Fatalf("OutOfOrder = %d on in-order input", s.OutOfOrder())
	}
}
