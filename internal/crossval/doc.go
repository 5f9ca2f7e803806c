// Package crossval implements the paper's validation harness (§5): with k
// sources, each source i in turn is treated as the "universe" of
// individuals; the other k−1 sources, restricted to i's members, become
// the CR samples, and the estimator predicts how many of i's members none
// of them saw. Since that number is known exactly, the prediction error is
// measurable — this drives the model-selection comparison of Table 3 and
// the per-source panels of Figure 3.
//
// The main entry points are Run, which performs the leave-one-source-out
// sweep over one window's joint capture table (core.TableFromSets of the
// sources' sets) and returns one SourceResult per source, and Errors,
// which aggregates the results into the RMSE/MAE pair Table 3 reports.
// Every held-out table is a fold of the joint table, so a caller that
// holds the window's table (experiments.Env caches one per window) runs
// the sweep without another pass over the sets.
package crossval
