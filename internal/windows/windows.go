package windows

import (
	"fmt"
	"time"
)

// Window is a half-open observation interval [Start, End).
type Window struct {
	Start, End time.Time
}

// Label renders the window's end month, e.g. "Dec 2011", matching the
// x-axis labels of Figures 4–6.
func (w Window) Label() string {
	end := w.End.AddDate(0, 0, -1) // last contained day
	return fmt.Sprintf("%s %d", end.Month().String()[:3], end.Year())
}

// Series builds count overlapping windows of the given length, with starts
// stepping by step months, beginning at start.
func Series(start time.Time, lengthMonths, stepMonths, count int) []Window {
	out := make([]Window, count)
	for i := range out {
		s := start.AddDate(0, i*stepMonths, 0)
		out[i] = Window{Start: s, End: s.AddDate(0, lengthMonths, 0)}
	}
	return out
}

// Paper returns the paper's 11 analysis windows: 12 months long, starts
// stepping quarterly from 1 Jan 2011, the last starting 1 Jul 2013 and
// ending 30 June 2014.
func Paper() []Window {
	return Series(time.Date(2011, 1, 1, 0, 0, 0, 0, time.UTC), 12, 3, 11)
}

// CollectionStart is the first day of data collection (§4.3).
var CollectionStart = time.Date(2011, 1, 1, 0, 0, 0, 0, time.UTC)

// CollectionEnd is the last day of data collection (§4.3).
var CollectionEnd = time.Date(2014, 6, 30, 0, 0, 0, 0, time.UTC)
