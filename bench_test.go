package ghosts

// The benchmark harness: one benchmark per table and figure of the paper's
// evaluation section, plus ablations for the design choices DESIGN.md
// calls out. Each benchmark runs the corresponding experiment end to end
// (simulate → collect → preprocess → estimate → summarise) and reports the
// headline quantities via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates the paper's results at simulation scale. The environment is
// shared and cached across benchmarks (as the experiments share their
// pipeline), so the first benchmark touching a pipeline pays its cost.

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"testing"
	"time"

	"ghosts/internal/core"
	"ghosts/internal/crossval"
	"ghosts/internal/dataset"
	"ghosts/internal/experiments"
	"ghosts/internal/ingest"
	"ghosts/internal/ipv4"
	"ghosts/internal/rng"
	"ghosts/internal/sources"
	"ghosts/internal/strata"
	"ghosts/internal/universe"
)

var (
	benchOnce sync.Once
	benchEnv  *experiments.Env
)

func env(b *testing.B) *experiments.Env {
	b.Helper()
	benchOnce.Do(func() {
		benchEnv = experiments.New(universe.TinyConfig(5), 99)
		benchEnv.MaxTerms = 3
	})
	return benchEnv
}

func BenchmarkTable2(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		d := experiments.Table2(e)
		d.Render(io.Discard)
		last := d.Rows[len(d.Rows)-1]
		b.ReportMetric(float64(last.IPs[2013]), "TPING-2013-IPs")
	}
}

func BenchmarkTable3(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		d := experiments.Table3(e, 4)
		d.Render(io.Discard)
		for _, r := range d.Rows {
			if r.Setting == "BIC-adaptive1000" {
				b.ReportMetric(r.RMSEAddrs, "RMSE-IPs")
				b.ReportMetric(r.RMSES24, "RMSE-s24")
			}
		}
	}
}

func BenchmarkTable4(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		d := experiments.Table4(e)
		d.Render(io.Discard)
		var crErr, obsErr float64
		for _, r := range d.Rows {
			crErr += math.Abs(r.TruncPct - r.TruthPct)
			obsErr += math.Abs(r.ObsPct - r.TruthPct)
		}
		n := float64(len(d.Rows))
		b.ReportMetric(100*crErr/n, "CR-err-pct")
		b.ReportMetric(100*obsErr/n, "obs-err-pct")
	}
}

func BenchmarkTable5(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		d := experiments.Table5(e)
		d.Render(io.Discard)
		b.ReportMetric(d.EstAddrs["None"], "est-IPs")
		b.ReportMetric(d.EstAddrs["None"]/d.Ping[0], "est-over-ping")
		b.ReportMetric(d.EstS24["None"], "est-s24")
	}
}

func BenchmarkTable6(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		d := experiments.Table6(e)
		d.Render(io.Discard)
		b.ReportMetric(d.World.GrowthIPs, "world-IP-growth")
		if !math.IsInf(d.World.RunoutIPs, 1) {
			b.ReportMetric(d.World.RunoutIPs, "world-runout-year")
		}
	}
}

func BenchmarkFigure2(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		d := experiments.Figure2(e)
		d.Render(io.Discard)
		last := len(d.Labels) - 1
		b.ReportMetric(d.UnfilteredEst[last]/d.FilteredEst[last], "spike-blowup")
		b.ReportMetric(d.FilteredEst[last]/d.NoNetflowEst[last], "filtered-vs-clean")
	}
}

func BenchmarkFigure3(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		d := experiments.Figure3(e)
		d.Render(io.Discard)
		var sum float64
		for _, en := range d.Entries {
			sum += en.Est
		}
		b.ReportMetric(sum/float64(len(d.Entries)), "mean-normalised-est")
	}
}

func BenchmarkFigure4(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		d := experiments.Figure4(e)
		d.Render(io.Discard)
		n := len(d.Labels) - 1
		b.ReportMetric(d.Estimated[n]/d.Estimated[0], "s24-growth")
		b.ReportMetric(d.Estimated[n]/d.Observed[n], "est-over-obs")
	}
}

func BenchmarkFigure5(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		d := experiments.Figure5(e)
		d.Render(io.Discard)
		n := len(d.Labels) - 1
		b.ReportMetric(d.Estimated[n]/d.Estimated[0], "IP-growth")
		b.ReportMetric(d.Estimated[n]/d.Observed[n], "est-over-obs")
	}
}

func BenchmarkFigure6(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		d := experiments.Figure6(e)
		d.Render(io.Discard)
		b.ReportMetric(float64(len(d.Series)), "RIR-series")
	}
}

func BenchmarkFigure7(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		d := experiments.Figure7(e)
		d.Render(io.Discard)
		b.ReportMetric(float64(len(d.Labels)), "prefix-strata")
	}
}

func BenchmarkFigure8(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		d := experiments.Figure8(e)
		d.Render(io.Discard)
		b.ReportMetric(float64(len(d.Labels)), "age-strata")
	}
}

func BenchmarkFigure9(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		d := experiments.Figure9(e, 20)
		d.Render(io.Discard)
		b.ReportMetric(float64(len(d.Labels)), "countries")
	}
}

func BenchmarkFigure10(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		d := experiments.Figure10(e)
		d.Render(io.Discard)
		b.ReportMetric(d.Allocated[len(d.Allocated)-1], "allocated-2014")
	}
}

func BenchmarkFigure11(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		d := experiments.Figure11(e)
		d.Render(io.Discard)
		b.ReportMetric(d.UserGrowth, "user-growth-M")
		b.ReportMetric(100*d.MeasuredRel, "measured-rel-growth-pct")
	}
}

func BenchmarkFigure12(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		d := experiments.Figure12(e)
		d.Render(io.Discard)
		b.ReportMetric(d.Ghosts, "ghosts")
		b.ReportMetric(d.Model24, "model-s24-filled")
	}
}

// ---------------------------------------------------------- microbenchmarks

// BenchmarkSelectModel isolates the stepwise model search — the dominant
// consumer of GLM fits — on the nine-source end-of-study table, so
// kernel-level changes (the lattice IRLS path, warm starts) show up
// directly in the snapshot diffs instead of being averaged into a whole
// experiment.
func BenchmarkSelectModel(b *testing.B) {
	e := env(b)
	bundle := e.Bundle(10, dataset.DefaultOptions())
	tb := core.TableFromSets(bundle.Sets, bundle.NameStrings())
	opt := core.SelectionOptions{
		IC: core.BIC, Divisor: core.Adaptive1000,
		Limit: float64(bundle.RoutedAddrs), MaxTerms: 3, MaxOrder: 2,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, _, err := core.SelectModelCtx(context.Background(), tb, opt)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(m.NumParams()), "params")
	}
}

// BenchmarkProfileInterval isolates one profile-likelihood interval on the
// selected end-of-study model: dozens of pinned-cell refits per interval,
// the workload the profiler's warm starts and the lattice Cell0 path serve.
func BenchmarkProfileInterval(b *testing.B) {
	e := env(b)
	bundle := e.Bundle(10, dataset.DefaultOptions())
	tb := core.TableFromSets(bundle.Sets, bundle.NameStrings())
	limit := float64(bundle.RoutedAddrs)
	opt := core.SelectionOptions{
		IC: core.BIC, Divisor: core.Adaptive1000,
		Limit: limit, MaxTerms: 3, MaxOrder: 2,
	}
	m, _, err := core.SelectModelCtx(context.Background(), tb, opt)
	if err != nil {
		b.Fatal(err)
	}
	fit, err := core.FitModel(tb, m, limit, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iv, err := core.ProfileIntervalScaledCtx(context.Background(), tb, fit, limit, 1e-7, limit, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(iv.Hi-iv.Lo, "width")
	}
}

// BenchmarkStratSeries isolates the stratified-sweep table-building paths
// on the end-of-study window: the one-pass labelled histogram fold versus
// the Split path that materialises per-stratum sets and folds each
// (DESIGN.md §8.2).
func BenchmarkStratSeries(b *testing.B) {
	e := env(b)
	bundle := e.Bundle(10, dataset.DefaultOptions())
	lt := e.LabelTable(strata.ByPrefix)
	b.Run("fold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hs := strata.CaptureHistogramsAll([]*strata.LabelTable{lt}, bundle.Sets)[0]
			n := 0
			hs.Range(func(string, []int64) bool { n++; return true })
			b.ReportMetric(float64(n), "strata")
		}
	})
	b.Run("dense", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			split := strata.Split(e.U, bundle.Sets, strata.ByPrefix)
			for _, group := range split {
				core.TableFromSets(group, nil)
			}
			b.ReportMetric(float64(len(split)), "strata")
		}
	})
}

// --------------------------------------------------------------- ablations

// BenchmarkAblationDivisor compares end-of-study estimates across the
// divisor settings (the design choice of §3.3.2): large fixed divisors
// simplify the model, adaptive tracks the data.
func BenchmarkAblationDivisor(b *testing.B) {
	e := env(b)
	bundle := e.Bundle(10, dataset.DefaultOptions())
	tb := core.TableFromSets(bundle.Sets, bundle.NameStrings())
	for i := 0; i < b.N; i++ {
		for _, s := range experiments.Table3Settings() {
			est := core.NewEstimator(s.IC, s.Divisor, float64(bundle.RoutedAddrs))
			est.MaxTerms = 3
			est.MaxOrder = 2
			res, err := est.Run(context.Background(), tb, core.RunOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if s.Name == "BIC-adaptive1000" || s.Name == "AIC-fixed1" {
				b.ReportMetric(res.N, s.Name)
			}
		}
	}
}

// BenchmarkAblationTruncation compares plain-Poisson and right-truncated
// estimates (§3.3.1/§5.2: truncation stabilises small strata).
func BenchmarkAblationTruncation(b *testing.B) {
	e := env(b)
	bundle := e.Bundle(10, dataset.DefaultOptions())
	tb := core.TableFromSets(bundle.Sets, bundle.NameStrings())
	for i := 0; i < b.N; i++ {
		plain, err := e.Estimator(math.Inf(1)).Run(context.Background(), tb, core.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		trunc, err := e.Estimator(float64(bundle.RoutedAddrs)).Run(context.Background(), tb, core.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(plain.N, "poisson")
		b.ReportMetric(trunc.N, "truncated")
	}
}

// BenchmarkAblationSources measures how the estimate converges as sources
// are added (the value of source diversity, §4.2).
func BenchmarkAblationSources(b *testing.B) {
	e := env(b)
	bundle := e.Bundle(10, dataset.DefaultOptions())
	truth := float64(e.U.UsedAt(bundle.Window.End).Len())
	for i := 0; i < b.N; i++ {
		for _, k := range []int{3, 5, 7, len(bundle.Sets)} {
			est, _ := e.EstimateSets(bundle.Sets[:k], float64(bundle.RoutedAddrs))
			b.ReportMetric(100*est/truth, fmt.Sprintf("pct-of-truth-%dsrc", k))
		}
	}
}

// BenchmarkAblationLP contrasts two-source Lincoln-Petersen estimates with
// the full log-linear fit (§3.2.2: correlated sources bias L-P).
func BenchmarkAblationLP(b *testing.B) {
	e := env(b)
	bundle := e.Bundle(10, dataset.DefaultOptions())
	tb := core.TableFromSets(bundle.Sets, bundle.NameStrings())
	pingIdx, webIdx, gameIdx := -1, -1, -1
	for i, n := range bundle.Names {
		switch n {
		case sources.IPING:
			pingIdx = i
		case sources.WEB:
			webIdx = i
		case sources.GAME:
			gameIdx = i
		}
	}
	for i := 0; i < b.N; i++ {
		llm, err := e.Estimator(float64(bundle.RoutedAddrs)).Run(context.Background(), tb, core.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(llm.N, "LLM")
		b.ReportMetric(core.LincolnPetersenPair(tb, pingIdx, webIdx), "LP-ping-web")
		b.ReportMetric(core.LincolnPetersenPair(tb, webIdx, gameIdx), "LP-web-game")
	}
}

// BenchmarkCrossValidation runs the full §5 harness on one window.
func BenchmarkCrossValidation(b *testing.B) {
	e := env(b)
	bundle := e.Bundle(9, dataset.DefaultOptions())
	est := core.NewEstimator(core.BIC, core.Adaptive1000, math.Inf(1))
	est.MaxTerms = 3
	est.MaxOrder = 2
	for i := 0; i < b.N; i++ {
		res, err := crossval.Run(context.Background(), bundle.Names, bundle.Sets, est, false)
		if err != nil {
			b.Fatal(err)
		}
		rmse, mae := crossval.Errors(res)
		b.ReportMetric(rmse, "rmse")
		b.ReportMetric(mae, "mae")
	}
}

// BenchmarkChurn reproduces the §4.6 in-text churn numbers.
func BenchmarkChurn(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		d := experiments.Churn(e)
		d.Render(io.Discard)
		b.ReportMetric(d.AddrGrowth, "addr-growth-x")
		b.ReportMetric(d.S24Growth, "s24-growth-x")
	}
}

// BenchmarkAblationPools contrasts DHCP allocation policies (§4.6).
func BenchmarkAblationPools(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		d := experiments.Pools(e)
		d.Render(io.Discard)
		last := len(d.Months) - 1
		b.ReportMetric(float64(d.LowestEver[last]), "lowest-free-ever")
		b.ReportMetric(float64(d.UniformEver[last]), "uniform-ever")
	}
}

// BenchmarkEstimators compares the estimator family against ground truth.
func BenchmarkEstimators(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		d := experiments.Estimators(e)
		d.Render(io.Discard)
		for _, r := range d.Rows {
			switch r.Name {
			case "Log-linear CR (paper)":
				b.ReportMetric(r.ErrPct, "LLM-err-pct")
			case "Heidemann 1.86 x ping":
				b.ReportMetric(r.ErrPct, "heidemann-err-pct")
			}
		}
	}
}

// BenchmarkPortSurvey reproduces footnote 2's port-responsiveness survey.
func BenchmarkPortSurvey(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		d := experiments.PortSurvey(e, 60000)
		d.Render(io.Discard)
		b.ReportMetric(float64(d.Responders[80]), "port80")
		b.ReportMetric(float64(d.Responders[443]), "port443")
	}
}

// BenchmarkStreamTick measures one streaming re-estimation tick against a
// pre-filled window ring, sweeping the fraction of the population that
// arrives as fresh events between ticks. Each iteration is (dirty events
// offered) + (one forced tick), so ns/op is ns/tick at that churn rate.
// Each event is one per-window capture-mask histogram update
// (hist[old]--, hist[old|bit]++) and the tick reads the histogram;
// STREAMING.md and DESIGN.md §10 derive why tick cost follows the events,
// not the addresses held. The set-rebuild comparison is committed in
// BENCH_2026-08-08.2.json.
func BenchmarkStreamTick(b *testing.B) {
	const (
		perSource = 40000 // addresses offered per source per window
		windows   = 3
		nsources  = 3
	)
	for _, dirtyPct := range []int{1, 10, 100} {
		b.Run(fmt.Sprintf("incremental/dirty=%d%%", dirtyPct), func(b *testing.B) {
			p := ingest.New(ingest.Config{
				Window:  time.Hour,
				Windows: windows,
				Every:   30 * time.Minute,
				Sources: []string{"v1", "v2", "v3"},
			})
			r := rng.New(7)
			start := time.Unix(1700000000, 0).UTC()
			// Fill the ring: per window, perSource draws per source
			// from a 2^28 span, so addresses land on mostly-distinct
			// /24 pages (the realistic sparse regime).
			at := start
			for w := 0; w < windows; w++ {
				at = start.Add(time.Duration(w)*time.Hour + time.Minute)
				for i := 0; i < perSource; i++ {
					a := ipv4.Addr(r.Uint64n(1 << 28))
					for s := 0; s < nsources; s++ {
						if r.Bernoulli(0.6) {
							p.Offer(s, a, at)
						}
					}
				}
			}
			p.Flush() // settle: every window estimated once, warm starts primed
			dirty := perSource * dirtyPct / 100
			lat := make([]time.Duration, 0, b.N)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < dirty; j++ {
					p.Offer(j%nsources, ipv4.Addr(r.Uint64n(1<<28)), at)
				}
				t0 := time.Now()
				if tk := p.Flush(); tk == nil || len(tk.Windows) == 0 {
					b.Fatal("flush produced no tick")
				}
				lat = append(lat, time.Since(t0))
			}
			b.StopTimer()
			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			p99 := lat[len(lat)*99/100]
			b.ReportMetric(float64(p99.Microseconds()), "tick-p99-us")
			b.ReportMetric(float64(dirty*b.N)/b.Elapsed().Seconds(), "events/s")
		})
	}
}
