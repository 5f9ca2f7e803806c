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
// (one Observation per source for a window, in the canonical All order),
// and Suite.GameChurn, the §4.6 session-level churn measurement behind the
// `ghosts -exp churn` experiment. Every capture decision compares a keyed
// hash of (seed, source, window, address) with one function, captureProb,
// so the expected observation of a window is computable from the same
// rule the sampler draws with.
package sources
