package report

import (
	"math"
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tb := Table{Title: "T", Headers: []string{"a", "bbbb"}}
	tb.AddRow("x", "1")
	tb.AddRow("longer", "2")
	var sb strings.Builder
	tb.Render(&sb)
	out := sb.String()
	if !strings.Contains(out, "T\n") {
		t.Error("title missing")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("expected 5 lines, got %d: %q", len(lines), out)
	}
	// Columns aligned: "longer" defines column width.
	if !strings.HasPrefix(lines[4], "longer  2") {
		t.Errorf("row misaligned: %q", lines[4])
	}
	if !strings.HasPrefix(lines[2], "------") {
		t.Errorf("separator missing: %q", lines[2])
	}
}

func TestFigureRender(t *testing.T) {
	var f Figure
	f.Title = "Fig"
	f.Add("obs", []string{"Dec 2011", "Mar 2012"}, []float64{1, 2})
	f.Add("est", []string{"Dec 2011", "Mar 2012"}, []float64{1.5, 2.5})
	var sb strings.Builder
	f.Render(&sb)
	out := sb.String()
	for _, want := range []string{"Fig", "obs", "est", "Dec 2011", "1.500"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in %q", want, out)
		}
	}
	var empty Figure
	empty.Title = "E"
	sb.Reset()
	empty.Render(&sb)
	if !strings.Contains(sb.String(), "(empty)") {
		t.Error("empty figure should say so")
	}
}

func TestFormatFloat(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{0, "0"},
		{42, "42"},
		{1234567, "1,234,567"},
		{-1234567, "-1,234,567"},
		{3.14159, "3.142"},
		{12345.6, "12,346"},
		{math.NaN(), "NaN"},
		{math.Inf(1), "inf"},
		{math.Inf(-1), "-inf"},
	}
	for _, c := range cases {
		if got := FormatFloat(c.in); got != c.want {
			t.Errorf("FormatFloat(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestGroup(t *testing.T) {
	cases := []struct {
		in   int64
		want string
	}{
		{0, "0"}, {5, "5"}, {999, "999"}, {1000, "1,000"},
		{123456789, "123,456,789"}, {-1000, "-1,000"},
	}
	for _, c := range cases {
		if got := Group(c.in); got != c.want {
			t.Errorf("Group(%d) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestMillionsPercent(t *testing.T) {
	if got := Percent(0.456); got != "45.6%" {
		t.Errorf("Percent = %q", got)
	}
}
