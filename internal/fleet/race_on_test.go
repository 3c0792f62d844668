//go:build race

package fleet

// raceEnabled reports whether the race detector instruments this build;
// the allocation-budget test skips under it (instrumentation perturbs
// allocation counts).
const raceEnabled = true

// equivalenceSeeds are the contract grid's worker-oracle seeds; under the
// ~10× race-detector slowdown one seed exercises every concurrent code
// path without stalling CI (the full sweep runs in the regular build).
var equivalenceSeeds = []int64{1}

// contractDraws is how many generated rows TestRunContract checks; each
// runs every oracle, so the instrumented build draws fewer.
const contractDraws = 8
