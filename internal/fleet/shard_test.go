package fleet

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// workerCounts exercises the interesting shard layouts: 1 (classic
// loop), an even split, a rack-count divisor mismatch, and a prime that
// forces ragged rack groups.
var workerCounts = []int{1, 2, 4, 7}

// TestShardedMatchesSequential is the sharding contract test: every
// policy × rack coordination × worker count × seed, at a healthy and an
// overloaded shape, must produce Metrics byte-identical to the
// sequential (Workers 0) run — reflect.DeepEqual over the full struct,
// floats included. Round-robin without the probabilistic draw exercises
// the concurrent decoupled workers; every coupled configuration pins
// that Workers is a no-op for it.
func TestShardedMatchesSequential(t *testing.T) {
	shapes := []struct {
		name     string
		overload float64
		queueCap int
	}{
		{"healthy", 0.9, 256},
		{"overloaded", 1.6, 3},
	}
	for _, sh := range shapes {
		for _, p := range Policies() {
			for _, c := range append([]Coordination{NoCoordination}, Coordinations()...) {
				for _, seed := range equivalenceSeeds {
					cfg := DefaultConfig(p)
					cfg.Nodes = 24
					cfg.Requests = 1500
					cfg.Seed = seed
					cfg.QueueCap = sh.queueCap
					cfg.ArrivalRatePerS = sh.overload * float64(cfg.Nodes) / cfg.MeanWorkS
					cfg.Coordination = c
					if c != NoCoordination {
						cfg.RackSize = 5 // ragged: 24 nodes → racks of 5,5,5,5,4
					}
					seq := mustSimulate(t, cfg)
					for _, w := range workerCounts {
						cfg.Workers = w
						got := mustSimulate(t, cfg)
						if !reflect.DeepEqual(got, seq) {
							t.Errorf("%s/%s/%s/seed=%d workers=%d diverged from sequential:\nsharded:    %+v\nsequential: %+v",
								sh.name, p, c, seed, w, got, seq)
						}
					}
				}
			}
		}
	}
}

// TestShardedScenarioMatchesSequential extends the contract to the
// dynamic engine: flash-crowd phases with failure churn (global event
// streams that must interleave with completions in exact sequential
// order), across every policy and a coordinated variant.
func TestShardedScenarioMatchesSequential(t *testing.T) {
	for _, p := range Policies() {
		for _, c := range []Coordination{NoCoordination, TokenPermit} {
			cfg, sc := flashCrowdChurn()
			cfg.Policy = p
			cfg.Coordination = c
			if c != NoCoordination {
				cfg.RackSize = 5
			}
			seq := mustScenario(t, cfg, sc)
			for _, w := range workerCounts {
				cfg.Workers = w
				got := mustScenario(t, cfg, sc)
				if !reflect.DeepEqual(got, seq) {
					t.Errorf("%s/%s workers=%d scenario run diverged from sequential", p, c, w)
				}
			}
		}
	}
}

// TestShardedHeterogeneousMatchesReference pins the restored O(log N)
// heterogeneous path: sprint-aware dispatch over mixed NodeClasses now
// runs on per-class index segments instead of falling back to the
// linear rescan, so it must match the retained reference scan exactly —
// segmented, at every worker count.
func TestShardedHeterogeneousMatchesReference(t *testing.T) {
	if refDispatch {
		t.Fatal("refDispatch already set")
	}
	cfg := DefaultConfig(SprintAware)
	cfg.Nodes = 16
	cfg.Seed = 3
	cfg.Coordination = TokenPermit
	cfg.RackSize = 4
	sc := Scenario{
		BaseRatePerS: 3,
		Phases: []Phase{
			{Name: "steady", DurationS: 120},
			{Name: "surge", DurationS: 60, StartFactor: 1.8},
		},
		Classes: []NodeClass{
			{Name: "big", Count: 4, SprintWidth: 32, BudgetScale: 2, DrainScale: 2},
			{Name: "small", Count: 12, NominalPowerW: 0.5},
		},
		Churn: Churn{MTBFS: 40, MeanDowntimeS: 5},
	}
	refDispatch = true
	ref := mustScenario(t, cfg, sc)
	refDispatch = false
	for _, w := range workerCounts {
		cfg.Workers = w
		got := mustScenario(t, cfg, sc)
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("workers=%d heterogeneous run diverged from reference scan:\nsegmented: %+v\nreference: %+v",
				w, got, ref)
		}
	}
}

// TestShardedApproxQuantileMatches crosses the exact/approximate
// quantile cutoff under the concurrent engine: per-worker histograms
// must Merge to the same Metrics the sequential single histogram
// observes, including the arena-order mean.
func TestShardedApproxQuantileMatches(t *testing.T) {
	if testing.Short() {
		t.Skip("trace above the exact-quantile cutoff")
	}
	cfg := DefaultConfig(RoundRobin)
	cfg.Nodes = 32
	cfg.Requests = 1<<17 + 4096
	cfg.Coordination = TokenPermit
	cfg.RackSize = 8
	seq := mustSimulate(t, cfg)
	for _, w := range []int{2, 7} {
		cfg.Workers = w
		got := mustSimulate(t, cfg)
		if !reflect.DeepEqual(got, seq) {
			t.Errorf("workers=%d approx-quantile run diverged from sequential", w)
		}
	}
}

// TestShardedRackConservation is a rapid-style property test: for
// random configurations, the sharded run's per-rack accounting must sum
// to the sequential run's fleet totals — per-worker energy and trips are
// conserved under the merge, whatever the shard layout. (DeepEqual over
// the full Metrics would subsume it, and is asserted too; the explicit
// sums localize a conservation bug to the rack ledger when one appears.)
func TestShardedRackConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5eed))
	policies := Policies()
	coords := append([]Coordination{NoCoordination}, Coordinations()...)
	for iter := 0; iter < 30; iter++ {
		cfg := DefaultConfig(policies[rng.Intn(len(policies))])
		cfg.Coordination = coords[rng.Intn(len(coords))]
		cfg.Nodes = 4 + rng.Intn(37)
		cfg.Requests = 400 + rng.Intn(1200)
		cfg.Seed = rng.Int63n(1 << 32)
		cfg.QueueCap = []int{2, 8, 256}[rng.Intn(3)]
		cfg.ArrivalRatePerS = (0.7 + rng.Float64()) * float64(cfg.Nodes) / cfg.MeanWorkS
		if cfg.Coordination != NoCoordination {
			cfg.RackSize = 1 + rng.Intn(8)
		}
		workers := 2 + rng.Intn(7)
		name := fmt.Sprintf("iter=%d %s/%s nodes=%d rack=%d workers=%d seed=%d",
			iter, cfg.Policy, cfg.Coordination, cfg.Nodes, cfg.RackSize, workers, cfg.Seed)

		seq := mustSimulate(t, cfg)
		cfg.Workers = workers
		got := mustSimulate(t, cfg)
		if !reflect.DeepEqual(got, seq) {
			t.Errorf("%s: sharded Metrics diverged from sequential", name)
			continue
		}
		trips, energy, throttled := 0, 0.0, 0.0
		for _, r := range got.Racks {
			trips += r.Trips
			energy += r.EnergyJ
			throttled += r.ThrottledS
		}
		if trips != got.BreakerTrips {
			t.Errorf("%s: per-rack trips sum %d != fleet BreakerTrips %d", name, trips, got.BreakerTrips)
		}
		if got.RackThrottledS != throttled {
			t.Errorf("%s: per-rack throttle sum %g != RackThrottledS %g", name, throttled, got.RackThrottledS)
		}
		if len(got.Racks) > 0 && !closeRel(energy, got.TotalEnergyJ, 1e-9) {
			t.Errorf("%s: per-rack energy sum %g != fleet TotalEnergyJ %g", name, energy, got.TotalEnergyJ)
		}
	}
}

func closeRel(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// TestWorkersValidate covers the knob's input handling: negative counts
// are rejected, absurd counts clamp to the rack-group count rather than
// spawning empty shards, and a coupled run ignores them.
func TestWorkersValidate(t *testing.T) {
	cfg := DefaultConfig(RoundRobin)
	cfg.Workers = -1
	if _, _, err := Run(context.Background(), Spec{Config: cfg}); err == nil {
		t.Error("negative Workers accepted")
	}
	for _, p := range []Policy{SprintAware, RoundRobin} {
		cfg = DefaultConfig(p)
		cfg.Nodes = 6
		cfg.Requests = 500
		seq := mustSimulate(t, cfg)
		cfg.Workers = 1000 // clamps to 6 rack groups of one node each
		if got := mustSimulate(t, cfg); !reflect.DeepEqual(got, seq) {
			t.Errorf("%s: over-provisioned worker count diverged from sequential", p)
		}
	}
}
