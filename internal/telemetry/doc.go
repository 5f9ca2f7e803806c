// Package telemetry is the pipeline's run-scoped metrics layer: atomic
// counters, monotonic timers, power-of-two histogram buckets, and a
// Recorder that aggregates them into a deterministic JSON run report.
//
// The paper's methodology makes estimator trustworthiness hinge on fit
// diagnostics — Fisher-scoring iterations to convergence (§3.3.1),
// model-selection path length and IC improvements (§3.3.2), bootstrap and
// profile-interval effort (§3.3.3) — which the estimation engine computes
// anyway; this package captures them instead of throwing them away, along
// with per-phase wall time and worker-pool utilization.
//
// The main entry points are NewRecorder, Enable/Disable/Active (the
// process-wide recorder used by the instrumented hot paths), the nil-safe
// Recorder methods called from stats.Lattice.Fit, core.SelectModel,
// core.BootstrapInterval, crossval.Run, experiments.Env,
// parallel.ForEach, the serving layer (serve/server) and the streaming
// pipeline (ingest.Pipeline: event, drop and rotation counters, the
// per-tick latency histogram, watch subscriptions and shed tick
// frames), and Recorder.Report, which snapshots everything into a
// Report (timestamps are injected by the caller so the JSON is
// replayable). Recorder.StartProgress prints periodic one-line progress
// summaries.
//
// Every method is safe on a nil *Recorder and compiles to a near-no-op, so
// instrumented code pays one atomic pointer load when telemetry is
// disabled and estimation results are bit-identical either way. The
// package depends only on the standard library.
package telemetry
