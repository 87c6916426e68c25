// Package repro is the root of the CSS reproduction: a privacy-
// preserving, event-driven integration platform for interoperating
// social and health systems, after Armellin et al. (SDM @ VLDB 2010).
//
// Import the public API from repro/css; the substrates live under
// internal/. The root package exists to host bench_test.go, the
// testing.B rigs of the non-timing experiments in EXPERIMENTS.md; what
// a commit costs is measured by the nested module under benchmark/.
package repro
