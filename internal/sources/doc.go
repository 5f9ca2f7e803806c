// Package sources simulates the paper's nine measurement datasets (§4.1,
// Table 2): two active censuses (IPING, TPING) and seven passive logs
// (WIKI, SPAM, MLAB, WEB, GAME, SWIN, CALT). Each source observes the
// ground-truth universe through its own biased lens — client-heavy server
// logs, ping-visible servers, NetFlow vantage points polluted with spoofed
// traffic — producing per-window observation sets whose heterogeneity and
// apparent dependence is exactly what the log-linear CR models must
// overcome.
//
// The main entry points are NewSuite over a universe, Suite.CollectAll
// (for each of a list of windows, one Observation per source in the
// canonical All order), and Suite.GameChurn, the §4.6 session-level churn
// measurement behind the `ghosts -exp churn` experiment. CollectAll walks
// the used space once for all its windows, fanning out over the
// allocations, and offers each address to every window that it is used
// in; single-window callers pass one window. Every capture decision
// compares a keyed hash of (seed, source, window, address) with one
// function, captureProb, so a window's sets do not depend on which windows
// are collected with it, and the expected observation of a window is
// computable from the same rule the sampler draws with. The routed filter
// (§4.4) asks the routed trie once per occupied /24 (ipset.Set.Retain).
package sources
