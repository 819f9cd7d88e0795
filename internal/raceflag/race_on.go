//go:build race

// Package raceflag reports whether the binary was built with the race
// detector. Its instrumentation allocates and slows instructions 5-10x,
// so tests asserting steady-state allocs/op or wall-clock ratios skip
// themselves under it.
package raceflag

// Enabled is true in a -race build.
const Enabled = true
