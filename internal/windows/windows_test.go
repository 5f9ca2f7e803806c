package windows

import (
	"testing"
	"time"
)

func TestPaperWindows(t *testing.T) {
	ws := Paper()
	if len(ws) != 11 {
		t.Fatalf("Paper() has %d windows, want 11", len(ws))
	}
	first := ws[0]
	if !first.Start.Equal(time.Date(2011, 1, 1, 0, 0, 0, 0, time.UTC)) {
		t.Errorf("first window starts %v", first.Start)
	}
	if !first.End.Equal(time.Date(2012, 1, 1, 0, 0, 0, 0, time.UTC)) {
		t.Errorf("first window ends %v", first.End)
	}
	last := ws[len(ws)-1]
	if !last.Start.Equal(time.Date(2013, 7, 1, 0, 0, 0, 0, time.UTC)) {
		t.Errorf("last window starts %v", last.Start)
	}
	if !last.End.Equal(time.Date(2014, 7, 1, 0, 0, 0, 0, time.UTC)) {
		t.Errorf("last window ends %v", last.End)
	}
}

func TestLabels(t *testing.T) {
	ws := Paper()
	if got := ws[0].Label(); got != "Dec 2011" {
		t.Errorf("first label = %q, want \"Dec 2011\"", got)
	}
	if got := ws[10].Label(); got != "Jun 2014" {
		t.Errorf("last label = %q, want \"Jun 2014\"", got)
	}
	if got := ws[1].Label(); got != "Mar 2012" {
		t.Errorf("second label = %q, want \"Mar 2012\"", got)
	}
}

func TestContains(t *testing.T) {
	w := Paper()[0]
	if !w.Contains(time.Date(2011, 6, 15, 0, 0, 0, 0, time.UTC)) {
		t.Error("mid-2011 should be inside the first window")
	}
	if !w.Contains(w.Start) {
		t.Error("window start is inside")
	}
	if w.Contains(w.End) {
		t.Error("window end is outside (half-open)")
	}
	if w.Contains(w.Start.AddDate(0, 0, -1)) {
		t.Error("day before start is outside")
	}
}

func TestSeriesOverlap(t *testing.T) {
	ws := Series(time.Date(2011, 1, 1, 0, 0, 0, 0, time.UTC), 12, 3, 5)
	for i := 1; i < len(ws); i++ {
		if got := ws[i].Start; !got.Equal(ws[i-1].Start.AddDate(0, 3, 0)) {
			t.Fatalf("window %d starts %v, want 3 months after previous", i, got)
		}
		if !ws[i].Start.Before(ws[i-1].End) {
			t.Fatal("consecutive 12-month windows stepping 3 months must overlap")
		}
	}
}

// Contains reports whether t lies inside the window.
func (w Window) Contains(t time.Time) bool {
	return !t.Before(w.Start) && t.Before(w.End)
}
