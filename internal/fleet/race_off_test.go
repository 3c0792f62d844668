//go:build !race

package fleet

// raceEnabled reports whether the race detector instruments this build;
// the allocation-budget test skips under it (instrumentation perturbs
// allocation counts).
const raceEnabled = false

// equivalenceSeeds are the contract grid's worker-oracle seeds; the
// uninstrumented build affords the full seed sweep.
var equivalenceSeeds = []int64{1, 2, 3}

// contractDraws is how many generated rows TestRunContract checks.
const contractDraws = 30
