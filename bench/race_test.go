//go:build race

package main

// raceBuild reports whether the race detector is compiled in: the program
// then runs several times slower, and the smoke test offers less load.
const raceBuild = true
