package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"ghosts/internal/crossval"
	"ghosts/internal/dataset"
	"ghosts/internal/itu"
	"ghosts/internal/report"
	"ghosts/internal/strata"
	"ghosts/internal/universe"
)

// labels renders the window end labels.
func (e *Env) labels() []string {
	out := make([]string, len(e.Win))
	for i, w := range e.Win {
		out[i] = w.Label()
	}
	return out
}

// ---------------------------------------------------------------- Figure 2

// Figure2Data compares observed/estimated /24 subnets with spoofing
// unfiltered, filtered, and with the NetFlow sources dropped entirely.
type Figure2Data struct {
	Labels []string
	// Six series, matching the paper's legend.
	UnfilteredObs, UnfilteredEst []float64
	FilteredObs, FilteredEst     []float64
	NoNetflowObs, NoNetflowEst   []float64
}

// Figure2 runs the /24 pipeline under the three preprocessing variants.
func Figure2(e *Env) *Figure2Data {
	d := &Figure2Data{Labels: e.labels()}
	variants := []struct {
		opt dataset.Options
		obs *[]float64
		est *[]float64
	}{
		{dataset.Options{SpoofFilter: false}, &d.UnfilteredObs, &d.UnfilteredEst},
		{dataset.Options{SpoofFilter: true}, &d.FilteredObs, &d.FilteredEst},
		{dataset.Options{DropNetflow: true}, &d.NoNetflowObs, &d.NoNetflowEst},
	}
	for _, v := range variants {
		for _, we := range e.Estimates(v.opt, true, false) {
			*v.obs = append(*v.obs, we.Observed)
			*v.est = append(*v.est, we.Est)
		}
	}
	return d
}

// Render writes the figure as aligned series.
func (d *Figure2Data) Render(w io.Writer) {
	var f report.Figure
	f.Title = "Figure 2: /24 subnets with and without spoof filtering"
	f.Add("Unfiltered_obs", d.Labels, d.UnfilteredObs)
	f.Add("Unfiltered_est", d.Labels, d.UnfilteredEst)
	f.Add("Filtered_obs", d.Labels, d.FilteredObs)
	f.Add("Filtered_est", d.Labels, d.FilteredEst)
	f.Add("No_SWINCALT_obs", d.Labels, d.NoNetflowObs)
	f.Add("No_SWINCALT_est", d.Labels, d.NoNetflowEst)
	f.Render(w)
}

// ---------------------------------------------------------------- Figure 3

// Figure3Entry is the per-source normalised cross-validation panel.
type Figure3Entry struct {
	Source  string
	ObsPing float64 // |universe ∩ IPING| / truth
	ObsAll  float64 // observed-by-others / truth
	EstLo   float64 // profile interval, normalised
	Est     float64
	EstHi   float64
}

// Figure3Data mirrors Figure 3 (window 9 of the paper).
type Figure3Data struct {
	WindowLabel string
	Entries     []Figure3Entry
}

// Figure3 runs the leave-one-source-out cross-validation with profile
// intervals on the paper's window 9.
func Figure3(e *Env) *Figure3Data {
	wIdx := 8
	if wIdx >= len(e.Win) {
		wIdx = len(e.Win) - 1
	}
	b := e.Bundle(wIdx, dataset.DefaultOptions())
	est := e.Estimator(math.Inf(1))
	// A background context never cancels, so Run cannot fail here.
	results, _ := crossval.Run(context.Background(), b.Names, b.Sets, est, true)
	d := &Figure3Data{WindowLabel: b.Window.Label()}
	for _, r := range results {
		truth := float64(r.Truth)
		d.Entries = append(d.Entries, Figure3Entry{
			Source:  string(r.Name),
			ObsPing: float64(r.ObsPing) / truth,
			ObsAll:  float64(r.ObsAll) / truth,
			EstLo:   r.Lo / truth,
			Est:     r.Est / truth,
			EstHi:   r.Hi / truth,
		})
	}
	return d
}

// Render writes the normalised panel table.
func (d *Figure3Data) Render(w io.Writer) {
	t := report.Table{
		Title:   fmt.Sprintf("Figure 3: cross-validation normalised on true source size (window %s)", d.WindowLabel),
		Headers: []string{"Source", "Obs ping", "Obs all", "LLM lo", "LLM est", "LLM hi"},
	}
	for _, en := range d.Entries {
		t.AddRow(en.Source,
			fmt.Sprintf("%.3f", en.ObsPing), fmt.Sprintf("%.3f", en.ObsAll),
			fmt.Sprintf("%.3f", en.EstLo), fmt.Sprintf("%.3f", en.Est),
			fmt.Sprintf("%.3f", en.EstHi))
	}
	t.Render(w)
}

// ------------------------------------------------------------ Figures 4, 5

// GrowthData is the routed/observed/estimated series (Figure 4 for /24
// subnets, Figure 5 for addresses), absolute and normalised on the first
// window.
type GrowthData struct {
	Title     string
	Labels    []string
	Routed    []float64
	Observed  []float64
	Estimated []float64
}

// Figure4 builds the /24-subnet growth series.
func Figure4(e *Env) *GrowthData { return growthData(e, true, "Figure 4: /24 subnets") }

// Figure5 builds the address growth series.
func Figure5(e *Env) *GrowthData { return growthData(e, false, "Figure 5: IPv4 addresses") }

func growthData(e *Env, s24 bool, title string) *GrowthData {
	d := &GrowthData{Title: title, Labels: e.labels()}
	for _, we := range e.Estimates(dataset.DefaultOptions(), s24, false) {
		d.Routed = append(d.Routed, we.Routed)
		d.Observed = append(d.Observed, we.Observed)
		d.Estimated = append(d.Estimated, we.Est)
	}
	return d
}

// Normalised returns a copy of the series normalised on their first value.
func (d *GrowthData) Normalised() (routed, observed, estimated []float64) {
	norm := func(xs []float64) []float64 {
		if len(xs) == 0 || xs[0] == 0 {
			return xs
		}
		out := make([]float64, len(xs))
		for i, v := range xs {
			out[i] = v / xs[0]
		}
		return out
	}
	return norm(d.Routed), norm(d.Observed), norm(d.Estimated)
}

// Render writes absolute and normalised series.
func (d *GrowthData) Render(w io.Writer) {
	var f report.Figure
	f.Title = d.Title + " (absolute)"
	f.Add("Routed", d.Labels, d.Routed)
	f.Add("Observed", d.Labels, d.Observed)
	f.Add("Estimated", d.Labels, d.Estimated)
	f.Render(w)
	rn, on, en := d.Normalised()
	var g report.Figure
	g.Title = d.Title + " (normalised on first window)"
	g.Add("Routed", d.Labels, rn)
	g.Add("Observed", d.Labels, on)
	g.Add("Estimated", d.Labels, en)
	g.Render(w)
}

// ---------------------------------------------------------------- Figure 6

// Figure6Data is the per-RIR estimated address series.
type Figure6Data struct {
	Labels []string
	// Series maps RIR name to its estimate per window.
	Series map[string][]float64
}

// Figure6 builds the per-RIR series.
func Figure6(e *Env) *Figure6Data {
	series := e.StratSeries(strata.ByRIR, false)
	d := &Figure6Data{Labels: e.labels(), Series: map[string][]float64{}}
	for i, m := range series {
		for label, v := range m {
			s, ok := d.Series[label]
			if !ok {
				s = make([]float64, len(series))
			}
			s[i] = v
			d.Series[label] = s
		}
	}
	return d
}

// Render writes absolute and normalised per-RIR series.
func (d *Figure6Data) Render(w io.Writer) {
	var names []string
	for n := range d.Series {
		names = append(names, n)
	}
	sort.Strings(names)
	var f report.Figure
	f.Title = "Figure 6: estimated IPv4 addresses by RIR (absolute)"
	for _, n := range names {
		f.Add(n, d.Labels, d.Series[n])
	}
	f.Render(w)
	var g report.Figure
	g.Title = "Figure 6: estimated IPv4 addresses by RIR (normalised)"
	for _, n := range names {
		s := d.Series[n]
		first := 0.0
		for _, v := range s {
			if v > 0 {
				first = v
				break
			}
		}
		norm := make([]float64, len(s))
		if first > 0 {
			for i, v := range s {
				norm[i] = v / first
			}
		}
		g.Add(n, d.Labels, norm)
	}
	g.Render(w)
}

// --------------------------------------------------------- Figures 7, 8, 9

// GrowthByStratum holds average yearly growth per stratum label, for
// observed and estimated addresses, absolute and relative.
type GrowthByStratum struct {
	Title  string
	Labels []string // stratum labels, display order
	// Parallel to Labels.
	ObsAbs, EstAbs []float64 // addresses per year
	ObsRel, EstRel []float64 // fraction per year (of the first estimate)
}

// Figure7 computes growth by allocation prefix size.
func Figure7(e *Env) *GrowthByStratum {
	d := growthByStratum(e, strata.ByPrefix, "Figure 7: yearly growth by allocation prefix size")
	d.sortBy(lessPrefix)
	return d
}

// Figure8 computes growth by allocation age (year).
func Figure8(e *Env) *GrowthByStratum {
	d := growthByStratum(e, strata.ByAge, "Figure 8: yearly growth by allocation age")
	d.sortBy(func(a, b string) bool { return a < b })
	return d
}

// Figure9 computes growth by country, sorted by estimated growth, keeping
// the largest countries (the paper keeps those with ≥1.5M observed).
func Figure9(e *Env, keep int) *GrowthByStratum {
	d := growthByStratum(e, strata.ByCountry, "Figure 9: yearly growth by country")
	// Sort by estimated absolute growth, descending, keep the top.
	type pair struct {
		label string
		idx   int
	}
	pairs := make([]pair, len(d.Labels))
	for i, l := range d.Labels {
		pairs[i] = pair{l, i}
	}
	sort.Slice(pairs, func(i, j int) bool {
		return d.EstAbs[pairs[i].idx] > d.EstAbs[pairs[j].idx]
	})
	if keep > 0 && keep < len(pairs) {
		pairs = pairs[:keep]
	}
	d.Labels = nil
	var oa, ea, or2, er []float64
	for _, p := range pairs {
		d.Labels = append(d.Labels, p.label)
		oa = append(oa, d.ObsAbs[p.idx])
		ea = append(ea, d.EstAbs[p.idx])
		or2 = append(or2, d.ObsRel[p.idx])
		er = append(er, d.EstRel[p.idx])
	}
	d.ObsAbs, d.EstAbs, d.ObsRel, d.EstRel = oa, ea, or2, er
	return d
}

func growthByStratum(e *Env, k strata.Key, title string) *GrowthByStratum {
	est := e.StratSeries(k, false)
	obs := e.StratObservedSeries(k, false)
	years := universe.YearOf(e.Win[len(e.Win)-1].End) - universe.YearOf(e.Win[0].End)
	if years <= 0 {
		years = 1
	}
	labels := map[string]bool{}
	for _, m := range est {
		for l := range m {
			labels[l] = true
		}
	}
	d := &GrowthByStratum{Title: title}
	for l := range labels {
		first, last := firstLast(est, l)
		firstObs, lastObs := firstLast(obs, l)
		if first == 0 || firstObs == 0 {
			continue
		}
		d.Labels = append(d.Labels, l)
		d.EstAbs = append(d.EstAbs, (last-first)/years)
		d.ObsAbs = append(d.ObsAbs, (lastObs-firstObs)/years)
		d.EstRel = append(d.EstRel, (last-first)/years/first)
		d.ObsRel = append(d.ObsRel, (lastObs-firstObs)/years/firstObs)
	}
	return d
}

func firstLast(series []map[string]float64, label string) (first, last float64) {
	for _, m := range series {
		if v, ok := m[label]; ok && v > 0 {
			if first == 0 {
				first = v
			}
			last = v
		}
	}
	return first, last
}

// sortBy permutes all parallel slices into the label order given by less.
func (d *GrowthByStratum) sortBy(less func(a, b string) bool) {
	idx := make([]int, len(d.Labels))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return less(d.Labels[idx[i]], d.Labels[idx[j]]) })
	permute := func(xs []float64) []float64 {
		out := make([]float64, len(xs))
		for i, k := range idx {
			out[i] = xs[k]
		}
		return out
	}
	labels := make([]string, len(d.Labels))
	for i, k := range idx {
		labels[i] = d.Labels[k]
	}
	d.Labels = labels
	d.ObsAbs = permute(d.ObsAbs)
	d.EstAbs = permute(d.EstAbs)
	d.ObsRel = permute(d.ObsRel)
	d.EstRel = permute(d.EstRel)
}

// lessPrefix orders "/10" < "/12" < "/24" numerically.
func lessPrefix(a, b string) bool {
	ai, bi := 0, 0
	fmt.Sscanf(a, "/%d", &ai)
	fmt.Sscanf(b, "/%d", &bi)
	return ai < bi
}

// Render writes the four growth panels.
func (d *GrowthByStratum) Render(w io.Writer) {
	t := report.Table{
		Title: d.Title,
		Headers: []string{"Stratum", "Obs growth/yr", "Est growth/yr",
			"Obs growth %/yr", "Est growth %/yr"},
	}
	for i, l := range d.Labels {
		t.AddRow(l,
			report.FormatFloat(d.ObsAbs[i]), report.FormatFloat(d.EstAbs[i]),
			report.Percent(d.ObsRel[i]), report.Percent(d.EstRel[i]))
	}
	t.Render(w)
}

// ---------------------------------------------------------------- Figure 10

// Figure10Data is the long-term view: allocated and routed space versus
// pingable, observed and estimated used addresses.
type Figure10Data struct {
	Labels    []string
	Allocated []float64
	Routed    []float64
	Ping      []float64
	Observed  []float64
	Estimated []float64
}

// Figure10 builds the long-term series. The pre-2011 allocated series
// comes from the registry; the measurement series cover the study period.
func Figure10(e *Env) *Figure10Data {
	d := &Figure10Data{}
	// Allocated space since 2003 (annual).
	for year := 2003; year <= 2014; year++ {
		at := time.Date(year, 12, 31, 0, 0, 0, 0, time.UTC)
		if year == 2014 {
			at = time.Date(2014, 6, 30, 0, 0, 0, 0, time.UTC)
		}
		d.Labels = append(d.Labels, fmt.Sprintf("%d", year))
		d.Allocated = append(d.Allocated, float64(e.U.Reg.AllocatedAddrs(at)))
		d.Routed = append(d.Routed, math.NaN())
		d.Ping = append(d.Ping, math.NaN())
		d.Observed = append(d.Observed, math.NaN())
		d.Estimated = append(d.Estimated, math.NaN())
	}
	es := e.Estimates(dataset.DefaultOptions(), false, false)
	for _, we := range es {
		y := we.Window.End.AddDate(0, 0, -1).Year()
		idx := y - 2003
		if idx < 0 || idx >= len(d.Labels) {
			continue
		}
		// Use the latest window ending in that calendar year.
		d.Routed[idx] = we.Routed
		d.Ping[idx] = we.Ping
		d.Observed[idx] = we.Observed
		d.Estimated[idx] = we.Est
	}
	return d
}

// MarshalJSON renders the series with JSON null for the years a series
// does not cover (encoding/json rejects NaN).
func (d *Figure10Data) MarshalJSON() ([]byte, error) {
	nullable := func(xs []float64) []any {
		out := make([]any, len(xs))
		for i, v := range xs {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				out[i] = nil
			} else {
				out[i] = v
			}
		}
		return out
	}
	return json.Marshal(map[string]any{
		"Labels":    d.Labels,
		"Allocated": nullable(d.Allocated),
		"Routed":    nullable(d.Routed),
		"Ping":      nullable(d.Ping),
		"Observed":  nullable(d.Observed),
		"Estimated": nullable(d.Estimated),
	})
}

// Render writes the long-term table.
func (d *Figure10Data) Render(w io.Writer) {
	var f report.Figure
	f.Title = "Figure 10: allocated, routed, pingable, observed and estimated addresses"
	f.Add("Allocated", d.Labels, d.Allocated)
	f.Add("Routed", d.Labels, d.Routed)
	f.Add("Ping", d.Labels, d.Ping)
	f.Add("Observed", d.Labels, d.Observed)
	f.Add("Estimated", d.Labels, d.Estimated)
	f.Render(w)
}

// ---------------------------------------------------------------- Figure 11

// Figure11Data combines the ITU user series with the §6.9 growth band and
// the pipeline's measured growth.
type Figure11Data struct {
	Users          []itu.UserPoint
	UserGrowth     float64 // M users/year 2007–2012
	BandLo, BandHi float64 // implied address growth band (M/year at real scale)
	// MeasuredGrowth is the CR-estimated address growth of this
	// simulation (absolute, simulation scale).
	MeasuredGrowth float64
	// MeasuredRel is the measured relative growth per year, comparable
	// across scales.
	MeasuredRel float64
}

// Figure11 checks the §6.9 consistency argument.
func Figure11(e *Env) *Figure11Data {
	es := e.Estimates(dataset.DefaultOptions(), false, false)
	growth := LinearGrowth(es, func(w WindowEstimate) float64 { return w.Est })
	first := es[0].Est
	d := &Figure11Data{
		Users:          itu.Users,
		UserGrowth:     itu.GrowthPerYear(2007, 2012),
		MeasuredGrowth: growth,
	}
	if first > 0 {
		d.MeasuredRel = growth / first
	}
	d.BandLo, d.BandHi = itu.PaperBand(d.UserGrowth)
	return d
}

// Render writes the series and the band check.
func (d *Figure11Data) Render(w io.Writer) {
	var f report.Figure
	f.Title = "Figure 11: Internet users (ITU, millions)"
	xs := make([]string, len(d.Users))
	ys := make([]float64, len(d.Users))
	for i, p := range d.Users {
		xs[i] = fmt.Sprintf("%d", p.Year)
		ys[i] = p.Users
	}
	f.Add("Users", xs, ys)
	f.Render(w)
	fmt.Fprintf(w, "User growth 2007-2012: %.0f M/year\n", d.UserGrowth)
	fmt.Fprintf(w, "Implied IPv4 growth band (§6.9): %.0f - %.0f M/year (paper CR estimate: 170)\n", d.BandLo, d.BandHi)
	fmt.Fprintf(w, "Simulated CR growth: %s addresses/year (%.1f%%/year relative)\n",
		report.FormatFloat(d.MeasuredGrowth), 100*d.MeasuredRel)
}
