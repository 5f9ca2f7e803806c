// Package stats provides the numerical machinery for the log-linear
// capture-recapture models: log-gamma and incomplete-gamma special
// functions, Poisson and right-truncated-Poisson distributions, chi-square
// quantiles, a dense linear solver, and a Poisson GLM fitted by Fisher
// scoring (with optional right truncation of the response, §3.3.1).
//
// Everything here uses only the standard library; the implementations
// follow the classical numerically-stable recipes (Lanczos for log-gamma,
// series/continued-fraction for the regularized incomplete gamma, Acklam's
// rational approximation for the normal quantile).
//
// The main entry points are Lattice.Fit (the GLM over the capture-history
// lattice: subset-indicator designs fitted by zeta transforms, reusable
// Workspace, warm-start coefficients), TruncPoisson (truncated
// mean/variance, §3.3.1), ChiSquare1Quantile (the profile-interval cutoff,
// §3.3.3), and the dense solvers Solve / SolveSPD. The dense row-major
// GLM kernel lives in the package tests as the lattice kernel's oracle.
package stats
