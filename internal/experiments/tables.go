package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"ghosts/internal/core"
	"ghosts/internal/crossval"
	"ghosts/internal/dataset"
	"ghosts/internal/ipset"
	"ghosts/internal/ipv4"
	"ghosts/internal/registry"
	"ghosts/internal/report"
	"ghosts/internal/sources"
	"ghosts/internal/strata"
	"ghosts/internal/universe"
	"ghosts/internal/unused"
	"ghosts/internal/windows"
)

// MinStratum is the sampling-zero exclusion threshold used by stratified
// experiments; the paper uses 1000 observed addresses (§3.3.4), scaled
// down here with the universe.
const MinStratum = 100

// ---------------------------------------------------------------- Table 2

// Table2Row is one source's yearly unique counts.
type Table2Row struct {
	Source sources.Name
	IPs    map[int]int // year → unique addresses
	S24s   map[int]int // year → unique /24s
}

// Table2Data mirrors the paper's Table 2: per-source unique IPv4 addresses
// and /24 subnets per calendar year (SWIN/CALT after spoof filtering).
type Table2Data struct {
	Years []int
	Rows  []Table2Row
}

// Table2 collects calendar-year datasets for 2011–2013.
func Table2(e *Env) *Table2Data {
	years := []int{2011, 2012, 2013}
	data := &Table2Data{Years: years}
	rows := make(map[sources.Name]*Table2Row)
	for _, n := range sources.All() {
		rows[n] = &Table2Row{Source: n, IPs: map[int]int{}, S24s: map[int]int{}}
	}
	ws := make([]windows.Window, len(years))
	for j, y := range years {
		ws[j] = windows.Window{
			Start: time.Date(y, 1, 1, 0, 0, 0, 0, time.UTC),
			End:   time.Date(y+1, 1, 1, 0, 0, 0, 0, time.UTC),
		}
	}
	for j, raw := range dataset.CollectRaw(e.U, e.Suite, ws) {
		y := years[j]
		b := raw.Assemble(e.U, e.Suite, dataset.DefaultOptions())
		for i, n := range b.Names {
			rows[n].IPs[y] = b.Sets[i].Len()
			rows[n].S24s[y] = b.Sets[i].Slash24Len()
		}
	}
	for _, n := range sources.All() {
		data.Rows = append(data.Rows, *rows[n])
	}
	return data
}

// Render writes the paper-style table.
func (d *Table2Data) Render(w io.Writer) {
	t := report.Table{
		Title:   "Table 2: data sources and observed unique IPv4 addresses and /24 subnets per year",
		Headers: []string{"Dataset"},
	}
	for _, y := range d.Years {
		t.Headers = append(t.Headers, fmt.Sprintf("%d IPs", y), fmt.Sprintf("%d /24", y))
	}
	for _, r := range d.Rows {
		row := []string{string(r.Source)}
		for _, y := range d.Years {
			if v, ok := r.IPs[y]; ok {
				ip := report.Group(int64(v))
				// The paper omits GAME's IP counts for confidentiality
				// (Table 2: "IPs for GAME omitted"); mirror that in the
				// rendered table (the data itself stays available).
				if r.Source == sources.GAME {
					ip = "conf"
				}
				row = append(row, ip, report.Group(int64(r.S24s[y])))
			} else {
				row = append(row, "-", "-")
			}
		}
		t.AddRow(row...)
	}
	t.Render(w)
}

// ---------------------------------------------------------------- Table 3

// Table3Setting is one model-selection parameter combination.
type Table3Setting struct {
	Name    string
	IC      core.IC
	Divisor core.DivisorMode
}

// Table3Settings are the seven combinations the paper evaluates.
func Table3Settings() []Table3Setting {
	return []Table3Setting{
		{"AIC-fixed1", core.AIC, core.Fixed1},
		{"BIC-fixed1", core.BIC, core.Fixed1},
		{"AIC-fixed10", core.AIC, core.Fixed10},
		{"AIC-fixed100", core.AIC, core.Fixed100},
		{"AIC-fixed1000", core.AIC, core.Fixed1000},
		{"AIC-adaptive1000", core.AIC, core.Adaptive1000},
		{"BIC-adaptive1000", core.BIC, core.Adaptive1000},
	}
}

// Table3Row is the cross-validation error of one setting.
type Table3Row struct {
	Setting             string
	RMSEAddrs, MAEAddrs float64
	RMSES24, MAES24     float64
}

// Table3Data mirrors Table 3.
type Table3Data struct {
	Rows []Table3Row
	// Windows actually evaluated (the paper uses all but the first).
	Windows int
}

// Table3 runs the model-selection cross-validation sweep. stride
// subsamples the windows (1 = the paper's all-but-first; larger strides
// keep the sweep tractable at interactive scales).
func Table3(e *Env, stride int) *Table3Data {
	if stride < 1 {
		stride = 1
	}
	data := &Table3Data{}
	var idxs []int
	for i := 1; i < len(e.Win); i += stride {
		idxs = append(idxs, i)
	}
	data.Windows = len(idxs)
	// Every setting reads the same joint tables: collect the windows in
	// one walk, then take each window's cached address and /24 tables.
	e.collect(idxs...)
	type wtab struct {
		names      []sources.Name
		addrs, s24 *core.Table
	}
	opt := dataset.DefaultOptions()
	var tabs []wtab
	for _, i := range idxs {
		tabs = append(tabs, wtab{e.Bundle(i, opt).Names, e.Table(i, opt, false), e.Table(i, opt, true)})
	}
	for _, s := range Table3Settings() {
		est := core.NewEstimator(s.IC, s.Divisor, math.Inf(1))
		est.MaxTerms = e.MaxTerms
		est.MaxOrder = e.MaxOrder
		var allAddr, allS24 []crossval.SourceResult
		for _, wt := range tabs {
			// A background context never cancels, so Run cannot fail here.
			addr, _ := crossval.Run(context.Background(), wt.names, wt.addrs, est, false)
			s24, _ := crossval.Run(context.Background(), wt.names, wt.s24, est, false)
			allAddr = append(allAddr, addr...)
			allS24 = append(allS24, s24...)
		}
		ra, ma := crossval.Errors(allAddr)
		rs, ms := crossval.Errors(allS24)
		data.Rows = append(data.Rows, Table3Row{
			Setting: s.Name, RMSEAddrs: ra, MAEAddrs: ma, RMSES24: rs, MAES24: ms,
		})
	}
	return data
}

// Render writes the paper-style table.
func (d *Table3Data) Render(w io.Writer) {
	t := report.Table{
		Title:   fmt.Sprintf("Table 3: cross-validation errors per model-selection setting (%d windows)", d.Windows),
		Headers: []string{"Setting", "RMSE IPs", "MAE IPs", "RMSE /24", "MAE /24"},
	}
	for _, r := range d.Rows {
		t.AddRow(r.Setting,
			report.FormatFloat(r.RMSEAddrs), report.FormatFloat(r.MAEAddrs),
			report.FormatFloat(r.RMSES24), report.FormatFloat(r.MAES24))
	}
	t.Render(w)
}

// ---------------------------------------------------------------- Table 4

// Table4Row compares estimates with ground truth for one network.
type Table4Row struct {
	Network       string
	Size          uint64
	PingPct       float64
	ObsPct        float64
	PoissonPct    float64
	TruncPct      float64
	TruthPct      float64 // peak simultaneous usage
	PingerBlocked bool
}

// Table4Data mirrors Table 4: six networks A–F, network F blocking the
// prober.
type Table4Data struct {
	WindowLabel string
	Rows        []Table4Row
}

// Table4 picks six diverse allocations as ground-truth networks and
// compares pingable/observed/estimated usage against the true peak.
func Table4(e *Env) *Table4Data {
	wIdx := len(e.Win) - 3 // high watermark roughly mid-study
	if wIdx < 0 {
		wIdx = 0
	}
	b := e.Bundle(wIdx, dataset.DefaultOptions())
	nets := pickNetworks(e.U, b.Window.End, 6)
	data := &Table4Data{WindowLabel: b.Window.Label()}
	for i, pfx := range nets {
		name := string(rune('A' + i))
		blocked := i == len(nets)-1 // network F blocks the pinger
		row := Table4Row{Network: name, Size: pfx.Size(), PingerBlocked: blocked}
		size := float64(pfx.Size())

		var restricted []*ipset.Set
		var union *ipset.Set = ipset.New()
		for j, n := range b.Names {
			if blocked && (n == sources.IPING || n == sources.TPING) {
				continue
			}
			r := restrictToPrefix(b.Sets[j], pfx)
			if n == sources.IPING {
				row.PingPct = float64(r.Len()) / size
			}
			if r.Len() > 0 {
				restricted = append(restricted, r)
				union.AddSet(r)
			}
		}
		row.ObsPct = float64(union.Len()) / size
		if len(restricted) >= 2 {
			plain, _ := e.EstimateSets(restricted, math.Inf(1))
			trunc, _ := e.EstimateSets(restricted, size)
			row.PoissonPct = plain / size
			row.TruncPct = trunc / size
		} else {
			row.PoissonPct = row.ObsPct
			row.TruncPct = row.ObsPct
		}
		row.TruthPct = float64(e.U.PeakUsedInPrefix(pfx, b.Window.End)) / size
		data.Rows = append(data.Rows, row)
	}
	return data
}

// pickNetworks selects n used allocations of diverse industries and sizes
// (/16 to /20) for the ground-truth comparison.
func pickNetworks(u *universe.Universe, at time.Time, n int) []ipv4.Prefix {
	var candidates []ipv4.Prefix
	seenInd := map[registry.Industry]int{}
	for i := range u.Reg.Allocs {
		al := &u.Reg.Allocs[i]
		if al.Prefix.Bits < 14 || al.Prefix.Bits > 20 {
			continue
		}
		if _, routed := u.RoutedPrefixAt(al.Prefix.First(), at); !routed {
			continue
		}
		if u.UsedInPrefix(al.Prefix, at).Len() < 50 {
			continue
		}
		if seenInd[al.Industry] >= 2 {
			continue
		}
		seenInd[al.Industry]++
		candidates = append(candidates, al.Prefix)
		if len(candidates) == n {
			break
		}
	}
	return candidates
}

func restrictToPrefix(s *ipset.Set, p ipv4.Prefix) *ipset.Set {
	out := ipset.New()
	s.Range(func(a ipv4.Addr) bool {
		if p.Contains(a) {
			out.Add(a)
		}
		return a <= p.Last() // sets iterate in ascending order
	})
	return out
}

// Render writes the paper-style table.
func (d *Table4Data) Render(w io.Writer) {
	t := report.Table{
		Title:   fmt.Sprintf("Table 4: estimated vs true usage per network (window %s, percentages of network size)", d.WindowLabel),
		Headers: []string{"Network", "Ping %", "Obs. %", "Poisson %", "TruncPoisson %", "Truth %"},
	}
	for _, r := range d.Rows {
		ping := report.Percent(r.PingPct)
		if r.PingerBlocked {
			ping = "0.0% (blocked)"
		}
		t.AddRow(r.Network, ping, report.Percent(r.ObsPct),
			report.Percent(r.PoissonPct), report.Percent(r.TruncPct),
			report.Percent(r.TruthPct))
	}
	t.Render(w)
}

// ---------------------------------------------------------------- Table 5

// Table5Data mirrors Table 5: totals at the last window under the various
// stratifications.
type Table5Data struct {
	WindowLabel string
	// EstBy maps stratification name ("None", "RIR", ...) to the total
	// estimate; separate maps for addresses and /24s.
	EstAddrs map[string]float64
	EstS24   map[string]float64
	Ping     [2]float64 // addrs, /24s
	Observed [2]float64
	Routed   [2]float64
}

// Table5 computes the end-of-study totals under every stratification.
func Table5(e *Env) *Table5Data {
	last := len(e.Win) - 1
	b := e.Bundle(last, dataset.DefaultOptions())
	d := &Table5Data{
		WindowLabel: b.Window.Label(),
		EstAddrs:    map[string]float64{},
		EstS24:      map[string]float64{},
	}
	es := e.Estimates(dataset.DefaultOptions(), false, false)
	es24 := e.Estimates(dataset.DefaultOptions(), true, false)
	we, we24 := es[last], es24[last]
	d.EstAddrs["None"] = we.Est
	d.EstS24["None"] = we24.Est
	d.Ping = [2]float64{we.Ping, we24.Ping}
	d.Observed = [2]float64{we.Observed, we24.Observed}
	d.Routed = [2]float64{we.Routed, we24.Routed}

	idxs := e.U.RoutedAllocs(b.Window.End)
	for _, k := range strata.Keys() {
		sizes := strata.RoutedSizes(e.U, k, idxs)
		d.EstAddrs[k.String()] = e.stratTotal(last, k, sizes, false)
		d.EstS24[k.String()] = e.stratTotal(last, k, sizes, true)
	}
	return d
}

// stratTotal estimates each of window i's strata with its own routed-size
// truncation and sums. Per-stratum contingency tables come straight out of
// the window's cached histogram fold (shared with the stratified series);
// no per-stratum sets are materialised.
func (e *Env) stratTotal(i int, k strata.Key, sizes map[string]strata.Size, s24 bool) float64 {
	h := e.StratHists(i, k, s24)
	var sts []core.StratumTable
	h.Range(func(label string, hist []int64) bool {
		limit := 0.0
		if sz, ok := sizes[label]; ok {
			if s24 {
				limit = float64(sz.Slash24)
			} else {
				limit = float64(sz.Addrs)
			}
		}
		sts = append(sts, core.StratumTable{
			Label: label,
			Table: &core.Table{T: h.T, Counts: hist},
			Limit: limit,
		})
		return true
	})
	sort.Slice(sts, func(i, j int) bool { return sts[i].Label < sts[j].Label })
	est := e.Estimator(math.Inf(1))
	res, err := est.EstimateStratified(sts, MinStratum)
	if err != nil {
		return 0
	}
	// Excluded sampling-zero strata still hold observed individuals; add
	// them back as observed-only mass so totals remain comparable.
	for _, label := range res.Excluded {
		res.Total += float64(strata.Observed(h.Hist(label)))
	}
	return res.Total
}

// Stratifications in Table 5 column order.
var table5Order = []string{"None", "RIR", "Country", "Age", "Prefix size", "Industry", "Stat/Dyn"}

// Render writes the paper-style table.
func (d *Table5Data) Render(w io.Writer) {
	t := report.Table{
		Title: fmt.Sprintf("Table 5: observed and estimated used space at %s by stratification", d.WindowLabel),
		Headers: append([]string{"Metric"}, append(append([]string{}, table5Order...),
			"Ping", "Observed", "Est unseen", "Routed")...),
	}
	row := func(name string, est map[string]float64, idx int) {
		cells := []string{name}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, k := range table5Order {
			v := est[k]
			cells = append(cells, report.FormatFloat(v))
			if v > 0 {
				unseen := v - d.Observed[idx]
				if unseen < lo {
					lo = unseen
				}
				if unseen > hi {
					hi = unseen
				}
			}
		}
		cells = append(cells,
			report.FormatFloat(d.Ping[idx]),
			report.FormatFloat(d.Observed[idx]),
			fmt.Sprintf("%s-%s", report.FormatFloat(lo), report.FormatFloat(hi)),
			report.FormatFloat(d.Routed[idx]))
		t.AddRow(cells...)
	}
	row("IP addresses", d.EstAddrs, 0)
	row("/24 subnets", d.EstS24, 1)
	t.Render(w)
}

// ---------------------------------------------------------------- Table 6

// Table6Row is one RIR's supply projection.
type Table6Row struct {
	RIR       string
	AvailIPs  float64 // routed but unused addresses
	GrowthIPs float64 // per year
	RunoutIPs float64 `json:"-"` // fractional year; +Inf = never
	AvailS24  float64
	GrowthS24 float64
	RunoutS24 float64 `json:"-"` // fractional year; +Inf = never
	// JSON-safe renderings of the runout years ("2046" or "never"),
	// filled by Table6 (encoding/json rejects +Inf).
	RunoutIPsLabel string
	RunoutS24Label string
}

func runoutLabel(v float64) string {
	if math.IsInf(v, 1) {
		return "never"
	}
	return fmt.Sprintf("%.0f", math.Floor(v))
}

// Table6Data mirrors Table 6.
type Table6Data struct {
	Rows  []Table6Row
	World Table6Row
}

// Table6 projects years of supply per RIR from the per-RIR estimate series.
func Table6(e *Env) *Table6Data {
	seriesIP := e.StratSeries(strata.ByRIR, false)
	series24 := e.StratSeries(strata.ByRIR, true)
	lastIdx := len(e.Win) - 1
	endYear := universe.YearOf(e.Win[lastIdx].End)
	idxs := e.U.RoutedAllocs(e.Win[lastIdx].End)
	sizes := strata.RoutedSizes(e.U, strata.ByRIR, idxs)

	d := &Table6Data{}
	var worldAvailIP, worldAvail24, worldGrowIP, worldGrow24 float64
	for _, rir := range registry.RIRs() {
		label := rir.String()
		row := Table6Row{RIR: label}
		growIP := seriesSlope(e, seriesIP, label)
		grow24 := seriesSlope(e, series24, label)
		lastIP := seriesLast(seriesIP, label)
		last24 := seriesLast(series24, label)
		if sz, ok := sizes[label]; ok {
			row.AvailIPs = math.Max(0, float64(sz.Addrs)-lastIP)
			row.AvailS24 = math.Max(0, float64(sz.Slash24)-last24)
		}
		row.GrowthIPs = growIP
		row.GrowthS24 = grow24
		row.RunoutIPs = unused.RunoutYear(row.AvailIPs, growIP, endYear)
		row.RunoutS24 = unused.RunoutYear(row.AvailS24, grow24, endYear)
		row.RunoutIPsLabel = runoutLabel(row.RunoutIPs)
		row.RunoutS24Label = runoutLabel(row.RunoutS24)
		worldAvailIP += row.AvailIPs
		worldAvail24 += row.AvailS24
		worldGrowIP += growIP
		worldGrow24 += grow24
		d.Rows = append(d.Rows, row)
	}
	d.World = Table6Row{
		RIR:       "World",
		AvailIPs:  worldAvailIP,
		GrowthIPs: worldGrowIP,
		RunoutIPs: unused.RunoutYear(worldAvailIP, worldGrowIP, endYear),
		AvailS24:  worldAvail24,
		GrowthS24: worldGrow24,
		RunoutS24: unused.RunoutYear(worldAvail24, worldGrow24, endYear),
	}
	d.World.RunoutIPsLabel = runoutLabel(d.World.RunoutIPs)
	d.World.RunoutS24Label = runoutLabel(d.World.RunoutS24)
	return d
}

func seriesSlope(e *Env, series []map[string]float64, label string) float64 {
	var xs, ys []float64
	for i, m := range series {
		if v, ok := m[label]; ok && v > 0 {
			xs = append(xs, universe.YearOf(e.Win[i].End))
			ys = append(ys, v)
		}
	}
	if len(xs) < 2 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	n := float64(len(xs))
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}

func seriesLast(series []map[string]float64, label string) float64 {
	for i := len(series) - 1; i >= 0; i-- {
		if v, ok := series[i][label]; ok && v > 0 {
			return v
		}
	}
	return 0
}

// Render writes the paper-style table.
func (d *Table6Data) Render(w io.Writer) {
	t := report.Table{
		Title: "Table 6: available space, growth and runout year by RIR",
		Headers: []string{"RIR", "Avail IPs", "Growth IPs/yr", "Runout IPs",
			"Avail /24s", "Growth /24s/yr", "Runout /24s"},
	}
	year := func(v float64) string {
		if math.IsInf(v, 1) {
			return "never"
		}
		return fmt.Sprintf("%.0f", math.Floor(v))
	}
	rows := append(append([]Table6Row{}, d.Rows...), d.World)
	for _, r := range rows {
		t.AddRow(r.RIR,
			report.FormatFloat(r.AvailIPs), report.FormatFloat(r.GrowthIPs), year(r.RunoutIPs),
			report.FormatFloat(r.AvailS24), report.FormatFloat(r.GrowthS24), year(r.RunoutS24))
	}
	t.Render(w)
}
