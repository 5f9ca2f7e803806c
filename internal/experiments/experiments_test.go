package experiments

import (
	"encoding/json"
	"math"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"ghosts/internal/core"
	"ghosts/internal/dataset"
	"ghosts/internal/parallel"
	"ghosts/internal/registry"
	"ghosts/internal/sources"
	"ghosts/internal/universe"
)

var (
	envOnce sync.Once
	envInst *Env
)

// env returns a shared tiny-scale environment; experiments cache their
// intermediate bundles inside it, so the suite pays for each pipeline once.
func env(t *testing.T) *Env {
	t.Helper()
	envOnce.Do(func() {
		envInst = New(universe.TinyConfig(5), 99)
		// Keep the stepwise search small: the tiny universe does not
		// support many stable interaction terms anyway.
		envInst.MaxTerms = 3
	})
	return envInst
}

func renderToString(t *testing.T, r interface{ Render(w *strings.Builder) }) string {
	t.Helper()
	var sb strings.Builder
	r.Render(&sb)
	return sb.String()
}

func TestTable2(t *testing.T) {
	d := Table2(env(t))
	if len(d.Rows) != 9 {
		t.Fatalf("expected 9 source rows, got %d", len(d.Rows))
	}
	byName := map[sources.Name]Table2Row{}
	for _, r := range d.Rows {
		byName[r.Source] = r
	}
	if _, ok := byName[sources.SPAM].IPs[2011]; ok {
		t.Error("SPAM must have no 2011 data")
	}
	if _, ok := byName[sources.CALT].IPs[2012]; ok {
		t.Error("CALT must have no 2012 data")
	}
	if byName[sources.IPING].IPs[2013] == 0 {
		t.Fatal("IPING must have 2013 data")
	}
	// Table 2 shape: IPING is the largest 2013 source.
	for _, r := range d.Rows {
		if r.Source == sources.IPING {
			continue
		}
		if v := r.IPs[2013]; v >= byName[sources.IPING].IPs[2013] {
			t.Errorf("%s (%d) should be below IPING (%d) in 2013",
				r.Source, v, byName[sources.IPING].IPs[2013])
		}
	}
	var sb strings.Builder
	d.Render(&sb)
	if !strings.Contains(sb.String(), "IPING") || !strings.Contains(sb.String(), "-") {
		t.Error("render must include sources and missing-data dashes")
	}
}

func TestTable3(t *testing.T) {
	// Wide stride keeps this tractable: 2 windows.
	d := Table3(env(t), 8)
	if len(d.Rows) != 7 {
		t.Fatalf("expected 7 settings, got %d", len(d.Rows))
	}
	for _, r := range d.Rows {
		if r.RMSEAddrs <= 0 || r.MAEAddrs <= 0 || r.RMSES24 <= 0 || r.MAES24 <= 0 {
			t.Errorf("%s: errors must be positive: %+v", r.Setting, r)
		}
		if r.RMSEAddrs < r.MAEAddrs {
			t.Errorf("%s: RMSE %v must be >= MAE %v", r.Setting, r.RMSEAddrs, r.MAEAddrs)
		}
	}
	var sb strings.Builder
	d.Render(&sb)
	if !strings.Contains(sb.String(), "BIC-adaptive1000") {
		t.Error("render must list settings")
	}
}

func TestTable4(t *testing.T) {
	d := Table4(env(t))
	if len(d.Rows) < 4 {
		t.Fatalf("expected at least 4 networks, got %d", len(d.Rows))
	}
	crBetter, obsBetter := 0, 0
	for _, r := range d.Rows {
		if r.TruthPct <= 0 || r.TruthPct > 1 {
			t.Fatalf("network %s: truth %v implausible", r.Network, r.TruthPct)
		}
		if r.ObsPct < r.PingPct {
			t.Errorf("network %s: observed %v below ping %v", r.Network, r.ObsPct, r.PingPct)
		}
		errCR := math.Abs(r.TruncPct - r.TruthPct)
		errObs := math.Abs(r.ObsPct - r.TruthPct)
		if errCR < errObs {
			crBetter++
		} else {
			obsBetter++
		}
	}
	// §5.2: "the CR estimates are always much closer to the truth" — allow
	// one exception at tiny scale.
	if crBetter <= obsBetter {
		t.Errorf("CR should beat raw observation on most networks: %d vs %d", crBetter, obsBetter)
	}
	last := d.Rows[len(d.Rows)-1]
	if !last.PingerBlocked || last.PingPct != 0 {
		t.Error("network F must block the pinger")
	}
	var sb strings.Builder
	d.Render(&sb)
	if !strings.Contains(sb.String(), "blocked") {
		t.Error("render must mark the blocked network")
	}
}

func TestTable5(t *testing.T) {
	d := Table5(env(t))
	if len(d.EstAddrs) != 7 || len(d.EstS24) != 7 {
		t.Fatalf("expected 7 stratifications, got %d/%d", len(d.EstAddrs), len(d.EstS24))
	}
	base := d.EstAddrs["None"]
	if base <= d.Observed[0] {
		t.Fatalf("estimate %v must exceed observed %v", base, d.Observed[0])
	}
	if base > d.Routed[0] {
		t.Fatalf("estimate %v must stay below routed %v", base, d.Routed[0])
	}
	// §6.2: estimates are "fairly consistent across stratifications".
	for name, v := range d.EstAddrs {
		if v < 0.7*base || v > 1.3*base {
			t.Errorf("stratification %s estimate %v deviates from %v", name, v, base)
		}
	}
	// Ping must undercount heavily (paper: 430M pinged vs 1.17B estimated,
	// quotient 2.6–2.7 vs Heidemann's 1.86).
	quot := base / d.Ping[0]
	if quot < 1.6 || quot > 4.5 {
		t.Errorf("estimate/ping quotient = %v, want ≈2.6", quot)
	}
	var sb strings.Builder
	d.Render(&sb)
	if !strings.Contains(sb.String(), "IP addresses") || !strings.Contains(sb.String(), "/24 subnets") {
		t.Error("render must include both metric rows")
	}
}

func TestTable6(t *testing.T) {
	d := Table6(env(t))
	if len(d.Rows) != 5 {
		t.Fatalf("expected 5 RIR rows, got %d", len(d.Rows))
	}
	endYear := 2014.5
	for _, r := range d.Rows {
		if r.AvailIPs < 0 || r.AvailS24 < 0 {
			t.Errorf("%s: negative availability", r.RIR)
		}
		if r.GrowthIPs > 0 && r.RunoutIPs < endYear {
			t.Errorf("%s: runout %v before the end of the study", r.RIR, r.RunoutIPs)
		}
	}
	if d.World.AvailIPs <= 0 || d.World.GrowthIPs <= 0 {
		t.Fatalf("world row implausible: %+v", d.World)
	}
	if d.World.RunoutIPs < endYear || d.World.RunoutIPs > 2200 {
		t.Errorf("world runout year %v implausible", d.World.RunoutIPs)
	}
	var sb strings.Builder
	d.Render(&sb)
	if !strings.Contains(sb.String(), "World") || !strings.Contains(sb.String(), "APNIC") {
		t.Error("render must include World and RIR rows")
	}
}

func TestFigure2(t *testing.T) {
	d := Figure2(env(t))
	n := len(d.Labels)
	if n == 0 || len(d.UnfilteredEst) != n || len(d.FilteredEst) != n || len(d.NoNetflowEst) != n {
		t.Fatal("series lengths inconsistent")
	}
	last := n - 1
	// The March-2014 spoof spike must blow up the unfiltered /24 estimate.
	if d.UnfilteredEst[last] <= 1.5*d.FilteredEst[last] {
		t.Errorf("unfiltered estimate %v should blow up vs filtered %v at the spike",
			d.UnfilteredEst[last], d.FilteredEst[last])
	}
	// Filtered estimates stay consistent with the no-NetFlow pipeline
	// (§4.5, Figure 2's headline claim).
	for i := range d.Labels {
		if d.NoNetflowEst[i] == 0 {
			continue
		}
		ratio := d.FilteredEst[i] / d.NoNetflowEst[i]
		if ratio < 0.7 || ratio > 1.4 {
			t.Errorf("window %s: filtered/no-netflow ratio %v out of band", d.Labels[i], ratio)
		}
	}
	var sb strings.Builder
	d.Render(&sb)
	if !strings.Contains(sb.String(), "Filtered_est") {
		t.Error("render must include the filtered series")
	}
}

func TestFigure3(t *testing.T) {
	d := Figure3(env(t))
	if len(d.Entries) < 8 {
		t.Fatalf("expected ≥8 sources, got %d", len(d.Entries))
	}
	good := 0
	for _, en := range d.Entries {
		if en.ObsAll <= 0 || en.ObsAll > 1 {
			t.Fatalf("%s: ObsAll %v outside (0,1]", en.Source, en.ObsAll)
		}
		if en.ObsPing > 1 {
			t.Fatalf("%s: ObsPing %v > 1", en.Source, en.ObsPing)
		}
		if en.Est < en.ObsAll {
			t.Fatalf("%s: estimate below observed", en.Source)
		}
		if en.EstLo > en.Est || en.EstHi < en.Est {
			t.Fatalf("%s: interval does not bracket estimate", en.Source)
		}
		// A good CR estimate lands near the truth (§5.3: most sources
		// "quite good", a few slightly low/high). At this scale the
		// profile ranges are narrow (the adaptive divisor resolves to 1),
		// so judge the point estimates.
		if en.Est >= 0.85 && en.Est <= 1.15 {
			good++
		}
		if en.Est <= en.ObsAll {
			t.Errorf("%s: CR estimate %v not above observed %v", en.Source, en.Est, en.ObsAll)
		}
	}
	if good < 6 {
		t.Errorf("only %d/%d source estimates within 15%% of the truth", good, len(d.Entries))
	}
	var sb strings.Builder
	d.Render(&sb)
	if !strings.Contains(sb.String(), "LLM est") {
		t.Error("render header missing")
	}
}

func TestFigures4And5(t *testing.T) {
	e := env(t)
	for _, d := range []*GrowthData{Figure4(e), Figure5(e)} {
		n := len(d.Labels)
		if n != len(e.Win) {
			t.Fatalf("%s: %d points", d.Title, n)
		}
		for i := 0; i < n; i++ {
			if d.Estimated[i] < d.Observed[i] {
				t.Errorf("%s window %s: estimate %v below observed %v",
					d.Title, d.Labels[i], d.Estimated[i], d.Observed[i])
			}
			if d.Estimated[i] > d.Routed[i]*1.001 {
				t.Errorf("%s window %s: estimate %v above routed %v",
					d.Title, d.Labels[i], d.Estimated[i], d.Routed[i])
			}
		}
		// Estimated and observed growth outpace routed growth (§6.3).
		_, on, en := d.Normalised()
		rn, _, _ := d.Normalised()
		if en[n-1] <= rn[n-1] {
			t.Errorf("%s: estimated growth %v should outpace routed %v", d.Title, en[n-1], rn[n-1])
		}
		if on[n-1] <= 1 {
			t.Errorf("%s: observed series did not grow", d.Title)
		}
		var sb strings.Builder
		d.Render(&sb)
		if !strings.Contains(sb.String(), "normalised") {
			t.Error("render must include the normalised panel")
		}
	}
}

func TestFigure5EstimateAboveObservedMargin(t *testing.T) {
	// §6.3: estimated IPs are 50–60% above observed; /24s only 5–10%.
	e := env(t)
	f5 := Figure5(e)
	f4 := Figure4(e)
	last := len(f5.Labels) - 1
	ipGap := f5.Estimated[last]/f5.Observed[last] - 1
	s24Gap := f4.Estimated[last]/f4.Observed[last] - 1
	if ipGap < 0.05 {
		t.Errorf("IP estimate only %v above observed; expected a clear ghost population", ipGap)
	}
	if s24Gap >= ipGap {
		t.Errorf("/24 gap %v should be far smaller than IP gap %v", s24Gap, ipGap)
	}
}

func TestFigure6(t *testing.T) {
	d := Figure6(env(t))
	// A tiny universe holds a couple of RIRs (chunks are /10-granular);
	// larger scales hold all five.
	if len(d.Series) < 2 {
		t.Fatalf("expected ≥2 RIR series, got %d (%v)", len(d.Series), keys(d.Series))
	}
	valid := map[string]bool{}
	for _, rir := range registry.RIRs() {
		valid[rir.String()] = true
	}
	for name, s := range d.Series {
		if !valid[name] {
			t.Fatalf("unknown RIR series %q", name)
		}
		if len(s) != len(d.Labels) {
			t.Fatalf("%v: series length %d", name, len(s))
		}
	}
	var sb strings.Builder
	d.Render(&sb)
	if !strings.Contains(sb.String(), "APNIC") {
		t.Error("render must include RIR names")
	}
}

func TestFigures789(t *testing.T) {
	e := env(t)
	f7 := Figure7(e)
	if len(f7.Labels) < 3 {
		t.Fatalf("figure 7: only %d prefix strata", len(f7.Labels))
	}
	for i := 1; i < len(f7.Labels); i++ {
		if !lessPrefix(f7.Labels[i-1], f7.Labels[i]) {
			t.Fatalf("figure 7 labels not ordered: %v", f7.Labels)
		}
	}
	f8 := Figure8(e)
	if len(f8.Labels) < 3 {
		t.Fatalf("figure 8: only %d age strata", len(f8.Labels))
	}
	f9 := Figure9(e, 10)
	if len(f9.Labels) == 0 || len(f9.Labels) > 10 {
		t.Fatalf("figure 9: %d countries", len(f9.Labels))
	}
	for i := 1; i < len(f9.Labels); i++ {
		if f9.EstAbs[i] > f9.EstAbs[i-1] {
			t.Fatal("figure 9 must be sorted by estimated growth")
		}
	}
	for _, d := range []*GrowthByStratum{f7, f8, f9} {
		if len(d.ObsAbs) != len(d.Labels) || len(d.EstRel) != len(d.Labels) {
			t.Fatalf("%s: ragged slices", d.Title)
		}
		var sb strings.Builder
		d.Render(&sb)
		if !strings.Contains(sb.String(), "growth") {
			t.Error("render missing growth columns")
		}
	}
}

func TestFigure10(t *testing.T) {
	d := Figure10(env(t))
	if len(d.Labels) != 12 {
		t.Fatalf("expected 12 years, got %d", len(d.Labels))
	}
	prev := 0.0
	for i, v := range d.Allocated {
		if v < prev {
			t.Fatalf("allocated space shrank at %s", d.Labels[i])
		}
		prev = v
	}
	// Estimated series present for study years and above ping.
	found := false
	for i := range d.Labels {
		if !math.IsNaN(d.Estimated[i]) {
			found = true
			if d.Estimated[i] < d.Ping[i] {
				t.Fatalf("estimated below ping at %s", d.Labels[i])
			}
		}
	}
	if !found {
		t.Fatal("no estimated points")
	}
	var sb strings.Builder
	d.Render(&sb)
	if !strings.Contains(sb.String(), "Allocated") {
		t.Error("render missing series")
	}
}

func TestFigure11(t *testing.T) {
	d := Figure11(env(t))
	if d.UserGrowth < 200 || d.UserGrowth > 280 {
		t.Fatalf("user growth %v", d.UserGrowth)
	}
	if d.BandLo >= d.BandHi {
		t.Fatal("band inverted")
	}
	if d.MeasuredRel <= 0 {
		t.Fatal("measured relative growth must be positive")
	}
	// The paper's consistency check: relative growth ≈ 170/1000 ≈ 15–25%
	// per year; accept a generous band for the simulation.
	if d.MeasuredRel > 0.6 {
		t.Errorf("relative growth %v implausibly fast", d.MeasuredRel)
	}
	var sb strings.Builder
	d.Render(&sb)
	if !strings.Contains(sb.String(), "170") {
		t.Error("render must mention the paper's estimate")
	}
}

func TestFigure12(t *testing.T) {
	d := Figure12(env(t))
	if d.Ghosts <= 0 {
		t.Fatal("no ghosts to distribute")
	}
	var obsTotal, estTotal float64
	for i := 0; i <= 32; i++ {
		if d.EstimatedBySize[i] < 0 || d.ObservedBySize[i] < 0 {
			t.Fatal("negative free space")
		}
		obsTotal += d.ObservedBySize[i]
		estTotal += d.EstimatedBySize[i]
	}
	if diff := obsTotal - estTotal; math.Abs(diff-d.Ghosts) > 1 {
		t.Fatalf("free space shrank by %v, want ghosts %v", diff, d.Ghosts)
	}
	// §7.2 checks the model's /24-equivalent against the independent LLM
	// /24 estimate (paper: 0.3M vs 0.26–0.36M). At tiny scale both
	// estimators carry large relative error, so anchor each against the
	// true number of used-but-unobserved /24s instead.
	e := env(t)
	b := e.Bundle(len(e.Win)-1, dataset.Options{DropNetflow: true})
	true24 := float64(e.U.UsedAt(b.Window.End).Slash24Len() - b.Union().Slash24Len())
	if true24 > 0 {
		// The fill ratios f_i are estimated from dataset merges, whose
		// increments are subnet-heavier than true ghosts (a census merge
		// reveals whole subnets the passive sources missed); the paper
		// notes f_i for small i are noisy. Require order-of-magnitude
		// agreement for the model and tight agreement for the LLM.
		if r := d.Model24 / true24; r < 0.1 || r > 10 {
			t.Errorf("model fills %v /24s vs %v truly missing (ratio %v)", d.Model24, true24, r)
		}
		if r := d.LLM24 / true24; r < 0.1 || r > 3 {
			t.Errorf("LLM /24 ghosts %v vs %v truly missing (ratio %v)", d.LLM24, true24, r)
		}
	}
	if d.FIBBefore <= 0 || d.FIBAfter <= 0 {
		t.Fatal("FIB counts missing")
	}
	var sb strings.Builder
	d.Render(&sb)
	if !strings.Contains(sb.String(), "Ghosts distributed") {
		t.Error("render missing ghost summary")
	}
}

func TestEstimatesCaching(t *testing.T) {
	e := env(t)
	a := e.Estimates(dataset.DefaultOptions(), false, false)
	b := e.Estimates(dataset.DefaultOptions(), false, false)
	if &a[0] != &b[0] {
		t.Fatal("Estimates must be cached")
	}
}

func keys(m map[string][]float64) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestChurn(t *testing.T) {
	d := Churn(env(t))
	if len(d.Days) != 16 {
		t.Fatalf("expected 16 days, got %d", len(d.Days))
	}
	// §4.6 shape: addresses churn much faster than /24s.
	if d.AddrGrowth < 1.8 {
		t.Errorf("address growth ×%.2f, want ≥1.8 (paper ×2.7)", d.AddrGrowth)
	}
	if d.S24Growth > 1.45 {
		t.Errorf("/24 growth ×%.2f, want ≤1.45 (paper ×1.2)", d.S24Growth)
	}
	if d.AddrGrowth <= d.S24Growth {
		t.Error("addresses must churn faster than /24s")
	}
	var sb strings.Builder
	d.Render(&sb)
	if !strings.Contains(sb.String(), "paper: ×2.7") {
		t.Error("render must cite the paper's numbers")
	}
}

func TestPools(t *testing.T) {
	d := Pools(env(t))
	if len(d.Months) != 12 {
		t.Fatalf("months = %d", len(d.Months))
	}
	last := len(d.Months) - 1
	// Lowest-free saturates near the peak; uniform approaches capacity.
	if d.LowestEver[last] > d.LowestPeak+8 {
		t.Errorf("lowest-free observed %d, peak %d: should coincide", d.LowestEver[last], d.LowestPeak)
	}
	if d.UniformEver[last] < int(0.9*float64(d.Capacity)) {
		t.Errorf("uniform observed %d of %d: should approach the pool", d.UniformEver[last], d.Capacity)
	}
	if d.UniformEver[last] <= 2*d.LowestEver[last] {
		t.Error("uniform must dwarf lowest-free over a 12-month window")
	}
	// Both policies served the same workload: peaks comparable.
	if d.UniformPeak > 2*d.LowestPeak || d.LowestPeak > 2*d.UniformPeak {
		t.Errorf("peaks diverge: %d vs %d", d.LowestPeak, d.UniformPeak)
	}
	var sb strings.Builder
	d.Render(&sb)
	if !strings.Contains(sb.String(), "high watermark") {
		t.Error("render must state the conclusion")
	}
}

func TestEstimators(t *testing.T) {
	d := Estimators(env(t))
	if d.Truth <= 0 {
		t.Fatal("no ground truth")
	}
	byName := map[string]EstimatorRow{}
	for _, r := range d.Rows {
		byName[r.Name] = r
	}
	llm, ok := byName["Log-linear CR (paper)"]
	if !ok {
		t.Fatal("LLM row missing")
	}
	obs := byName["Observed union"]
	heid := byName["Heidemann 1.86 x ping"]
	// The paper's headline: LLM beats both the raw union and the 1.86
	// correction factor.
	if math.Abs(llm.ErrPct) >= math.Abs(obs.ErrPct) {
		t.Errorf("LLM error %+.1f%% should beat observed %+.1f%%", llm.ErrPct, obs.ErrPct)
	}
	if math.Abs(llm.ErrPct) >= math.Abs(heid.ErrPct) {
		t.Errorf("LLM error %+.1f%% should beat Heidemann %+.1f%%", llm.ErrPct, heid.ErrPct)
	}
	// Chao is a lower bound: it must not exceed the LLM estimate wildly
	// and must be at least the observed count.
	chao := byName["Chao lower bound"]
	if chao.Estimate < obs.Estimate {
		t.Error("Chao below the observed count")
	}
	var sb strings.Builder
	d.Render(&sb)
	if !strings.Contains(sb.String(), "Log-linear CR") {
		t.Error("render missing LLM row")
	}
}

func TestPortSurvey(t *testing.T) {
	d := PortSurvey(env(t), 60000)
	if d.Sampled == 0 {
		t.Fatal("no addresses sampled")
	}
	// Footnote 2: port 80 is the most responsive.
	for _, p := range d.Ports {
		if p != 80 && d.Responders[p] >= d.Responders[80] {
			t.Errorf("port %d (%d) should be below port 80 (%d)", p, d.Responders[p], d.Responders[80])
		}
	}
	if d.Responders[80] == 0 {
		t.Fatal("no port-80 responders")
	}
	// §4.2: some devices are reachable on TCP but not ICMP, but they are a
	// small minority of the used population.
	if d.TCPNotICMP == 0 {
		t.Error("expected some TCP-only responders")
	}
	if frac := float64(d.TCPNotICMP) / float64(d.Sampled); frac > 0.2 {
		t.Errorf("TCP-only fraction %.3f implausibly large", frac)
	}
	var sb strings.Builder
	d.Render(&sb)
	if !strings.Contains(sb.String(), "specialised-device") {
		t.Error("render missing the §4.2 note")
	}
}

func TestJSONEncodable(t *testing.T) {
	// Every experiment result must be JSON-encodable (the CLI's -outdir
	// mode); NaN/Inf values must be sanitised by the types themselves.
	e := env(t)
	results := []interface{}{
		Table6(e), Figure10(e), Figure11(e), Churn(e),
	}
	for _, r := range results {
		if _, err := json.Marshal(r); err != nil {
			t.Errorf("%T not JSON-encodable: %v", r, err)
		}
	}
}

func TestEstimatesDeterministicAcrossWorkers(t *testing.T) {
	// The per-window fan-out must produce a series byte-identical to the
	// serial pipeline. Fresh environments on both sides keep the caches
	// from short-circuiting the comparison; a truncated window list keeps
	// the test fast.
	defer parallel.SetWorkers(0)
	run := func(workers int) []WindowEstimate {
		parallel.SetWorkers(workers)
		e := New(universe.TinyConfig(5), 99)
		e.MaxTerms = 3
		e.Win = e.Win[:4]
		return e.Estimates(dataset.DefaultOptions(), false, false)
	}
	serial := run(1)
	par := run(8)
	if !reflect.DeepEqual(serial, par) {
		t.Fatalf("parallel estimates differ from serial:\nserial: %+v\nparallel: %+v", serial, par)
	}
}

// TestCachedTablesMatchBundles: after a full batch, every capture table
// the Env cached must still equal a fresh TableFromSets of its bundle.
// The tables are shared by every reader (the main series, Table 3,
// Figure 3, the estimator comparison), so a reader that wrote into its
// table would change every later reader's input.
func TestCachedTablesMatchBundles(t *testing.T) {
	e := env(t)
	for _, id := range []string{"summary", "table3", "table5", "fig3", "fig8", "estimators"} {
		ex, ok := Lookup(id)
		if !ok {
			t.Fatalf("unknown experiment %s", id)
		}
		ex.Run(e)
	}
	e.mu.Lock()
	tables := make(map[tableKey]*core.Table, len(e.tables))
	for k, tb := range e.tables {
		tables[k] = tb
	}
	e.mu.Unlock()
	var s24 int
	for k, tb := range tables {
		b := e.Bundle(k.win, k.opt)
		sets := b.Sets
		if k.s24 {
			sets = b.Sets24()
			s24++
		}
		fresh := core.TableFromSets(sets, b.NameStrings())
		if !reflect.DeepEqual(tb, fresh) {
			t.Fatalf("window %d (s24=%v): cached table %v differs from its bundle's %v", k.win, k.s24, tb.Counts, fresh.Counts)
		}
	}
	if len(tables) < 2*len(e.Win) || s24 < len(e.Win) {
		t.Fatalf("%d tables cached (%d over /24s), want both series over all %d windows", len(tables), s24, len(e.Win))
	}
}

// TestBundleCollectsOneWindow: a lone Bundle(i) on a fresh Env walks for
// window i only; collecting every window is left to the series callers.
func TestBundleCollectsOneWindow(t *testing.T) {
	e := New(universe.TinyConfig(5), 99)
	last := len(e.Win) - 1
	e.Bundle(last, dataset.DefaultOptions())
	if len(e.raws) != 1 || e.raws[last] == nil {
		t.Fatalf("Bundle(%d) collected windows %v, want only %d", last, keysOf(e.raws), last)
	}
}

func keysOf(m map[int]*dataset.Raw) []int {
	var out []int
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// TestConcurrentBundles: bundles requested from many goroutines at once
// on a fresh Env, whose collection walks run one at a time, must all be
// the one bundle the Env keeps per window, with the sets a window
// collected in a fresh Env of its own holds.
func TestConcurrentBundles(t *testing.T) {
	fresh := func() *Env {
		e := New(universe.TinyConfig(5), 99)
		e.Win = e.Win[:4]
		return e
	}
	e := fresh()
	got := make([]*dataset.Bundle, 3*len(e.Win))
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = e.Bundle(g%len(e.Win), dataset.DefaultOptions())
		}(g)
	}
	wg.Wait()
	ref := fresh()
	for g, b := range got {
		i := g % len(e.Win)
		if b != e.Bundle(i, dataset.DefaultOptions()) {
			t.Fatalf("window %d: goroutine %d got a bundle the Env did not keep", i, g)
		}
		want := ref.Bundle(i, dataset.DefaultOptions())
		if !reflect.DeepEqual(core.TableFromSets(b.Sets, nil), core.TableFromSets(want.Sets, nil)) {
			t.Fatalf("window %d: concurrently collected sets differ from a lone collection", i)
		}
	}
}
