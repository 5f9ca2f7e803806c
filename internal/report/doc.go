// Package report renders experiment results as aligned ASCII tables and
// simple text series ("figures") for the CLI and the benchmark harness. It
// is the presentation layer for every Table 2–6 and Figure 2–12
// reproduction.
//
// The main entry points are Table (AddRow/Render), Series and Figure for
// the per-window series the figures print, and the numeric formatting
// helpers (FormatFloat, Group, Percent) shared by all experiments.
package report
