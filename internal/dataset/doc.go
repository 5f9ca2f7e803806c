// Package dataset assembles the per-window data bundle the estimators
// consume: the aggregated routed table (§4.4), the nine source
// observations, and — unless disabled — the spoof-filtered versions of the
// NetFlow sources (§4.5). It is the single place where the paper's
// preprocessing pipeline is wired together, shared by the experiments, the
// cross-validation harness and the CLI.
//
// The main entry points are CollectRaw, which collects a list of windows
// in one walk of the universe and returns each window's Raw (routed trie,
// routed address and /24 totals, unfiltered source sets), and
// Raw.Assemble, which applies the preprocessing Options (DefaultOptions
// gives the paper's settings) and returns a Bundle: the preprocessed
// observation sets in canonical source order (Sets24 projects them to /24
// granularity). Callers that need several windows collect them together.
package dataset
