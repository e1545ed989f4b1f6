//go:build race

package testutil

// RaceEnabled reports whether the binary was built with -race. Allocation
// pins skip under it: the race detector makes sync.Pool drop items at
// random, so pooled paths allocate nondeterministically.
const RaceEnabled = true
