package report

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Table is a simple column-aligned table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row of already-formatted cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Render writes the table to w with column alignment.
func (t *Table) Render(w io.Writer) {
	if t.Title != "" {
		fmt.Fprintf(w, "%s\n", t.Title)
	}
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Series is a labelled sequence of (x, y) points — one line of a figure.
type Series struct {
	Name string
	X    []string
	Y    []float64
}

// Figure is a set of series sharing x labels.
type Figure struct {
	Title  string
	Series []Series
}

// Add appends a series.
func (f *Figure) Add(name string, x []string, y []float64) {
	f.Series = append(f.Series, Series{Name: name, X: x, Y: y})
}

// Render writes the figure as a table of x labels versus series values.
func (f *Figure) Render(w io.Writer) {
	if len(f.Series) == 0 {
		fmt.Fprintf(w, "%s\n(empty)\n", f.Title)
		return
	}
	t := Table{Title: f.Title, Headers: []string{"x"}}
	for _, s := range f.Series {
		t.Headers = append(t.Headers, s.Name)
	}
	n := 0
	for _, s := range f.Series {
		if len(s.X) > n {
			n = len(s.X)
		}
	}
	for i := 0; i < n; i++ {
		row := make([]string, 0, len(f.Series)+1)
		label := ""
		for _, s := range f.Series {
			if i < len(s.X) {
				label = s.X[i]
				break
			}
		}
		row = append(row, label)
		for _, s := range f.Series {
			if i < len(s.Y) {
				row = append(row, FormatFloat(s.Y[i]))
			} else {
				row = append(row, "")
			}
		}
		t.AddRow(row...)
	}
	t.Render(w)
}

// FormatFloat renders a value compactly: integers without decimals, large
// magnitudes with thousands grouping, small ones with 3 significant
// decimals.
func FormatFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "inf"
	case math.IsInf(v, -1):
		return "-inf"
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return Group(int64(v))
	}
	if math.Abs(v) >= 1000 {
		return Group(int64(math.Round(v)))
	}
	return strconv.FormatFloat(v, 'f', 3, 64)
}

// Group renders an integer with thousands separators ("1,234,567").
func Group(v int64) string {
	s := strconv.FormatInt(v, 10)
	neg := false
	if strings.HasPrefix(s, "-") {
		neg, s = true, s[1:]
	}
	var b strings.Builder
	pre := len(s) % 3
	if pre > 0 {
		b.WriteString(s[:pre])
	}
	for i := pre; i < len(s); i += 3 {
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.WriteString(s[i : i+3])
	}
	out := b.String()
	if neg {
		return "-" + out
	}
	return out
}

// Percent renders a ratio as a percentage with one decimal.
func Percent(v float64) string {
	return strconv.FormatFloat(100*v, 'f', 1, 64) + "%"
}
