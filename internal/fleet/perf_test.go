package fleet

import (
	"context"
	"math"
	"testing"

	"sprinting/internal/trace"
)

// TestSimulateSteadyStateAllocations is the allocation-budget guard for
// the arena work: events are heap values, requests live in one arena,
// queued copies are 8-byte values, and the dispatch index never
// allocates per query — so growing the trace must not grow the
// allocation count beyond slack for amortized container growth. A
// per-request allocation anywhere in the event loop would add thousands
// of allocations to the delta and fail loudly.
func TestSimulateSteadyStateAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	cfgFor := func(p Policy, requests int) Config {
		cfg := DefaultConfig(p)
		cfg.Nodes = 16
		cfg.Requests = requests
		cfg.Seed = 3
		return cfg
	}
	ctx := context.Background()
	for _, p := range []Policy{LeastLoaded, SprintAware, Hedged} {
		small := testing.AllocsPerRun(3, func() {
			if _, _, err := Run(ctx, Spec{Config: cfgFor(p, 2000)}); err != nil {
				t.Fatal(err)
			}
		})
		large := testing.AllocsPerRun(3, func() {
			if _, _, err := Run(ctx, Spec{Config: cfgFor(p, 10000)}); err != nil {
				t.Fatal(err)
			}
		})
		if delta := large - small; delta > 32 {
			t.Errorf("%s: 5× the trace cost %.0f extra allocations (%.0f → %.0f); the event loop is allocating per request",
				p, delta, small, large)
		}
		// The flight recorder's zero-cost-when-off contract: tracing is
		// keyed on the level, so a Config with the other Trace knobs set
		// at LevelOff must allocate exactly what the untraced run does —
		// the recorder hooks are nil checks, nothing more.
		traceOff := testing.AllocsPerRun(3, func() {
			cfg := cfgFor(p, 10000)
			cfg.Trace = TraceConfig{TopK: 5, WindowS: 1}
			if _, _, err := Run(ctx, Spec{Config: cfg}); err != nil {
				t.Fatal(err)
			}
		})
		// Compared with constant slack (pool warm-up makes single-digit
		// jitter in either direction); any per-request recorder cost would
		// show up as thousands.
		if traceOff-large > 8 {
			t.Errorf("%s: Trace-off run costs %.0f allocations vs %.0f untraced; the off path is not free",
				p, traceOff, large)
		}
	}

	// The cohort path: a scenario+workload run settles phase, class, and
	// tenant cohorts in finish(), and its exact-mode buffers are sized
	// from the cohort counts — so 5× the timeline must stay within the
	// same slack; a cohort buffer grown per request would blow it.
	cohortSpec := func(scale float64) Spec {
		cfg := DefaultConfig(SprintAware)
		cfg.Nodes = 16
		cfg.Seed = 3
		sc := Scenario{Phases: []Phase{
			{Name: "baseline", DurationS: 200 * scale, StartFactor: 0.7},
			{Name: "surge", DurationS: 100 * scale, StartFactor: 1.5},
		}}
		w := WorkloadSpec{
			Classes: []SLOClass{{Name: "interactive", TargetP99S: 1}, {Name: "batch", Priority: 1}},
			Tenants: []TenantSpec{
				{Name: "search", Class: "interactive", Arrival: ArrivalSpec{RatePerS: 4}, Work: WorkSpec{MeanS: 1.5}},
				{Name: "analytics", Class: "batch", Arrival: ArrivalSpec{RatePerS: 2}, Work: WorkSpec{MeanS: 3}},
			},
		}
		return Spec{Config: cfg, Scenario: &sc, Workload: &w}
	}
	var small, large Metrics
	smallAllocs := testing.AllocsPerRun(3, func() {
		var err error
		if small, _, err = Run(ctx, cohortSpec(1)); err != nil {
			t.Fatal(err)
		}
	})
	largeAllocs := testing.AllocsPerRun(3, func() {
		var err error
		if large, _, err = Run(ctx, cohortSpec(5)); err != nil {
			t.Fatal(err)
		}
	})
	if large.Requests < 4*small.Requests || large.ApproxQuantiles {
		t.Fatalf("cohort inputs do not scale in exact mode: %d → %d requests (approx %v)",
			small.Requests, large.Requests, large.ApproxQuantiles)
	}
	if delta := largeAllocs - smallAllocs; delta > 32 {
		t.Errorf("scenario+workload: 5× the timeline cost %.0f extra allocations (%.0f → %.0f); a cohort path is allocating per request",
			delta, smallAllocs, largeAllocs)
	}
}

// TestTracedRunAllocations is the recorder's allocation budget, on
// BenchmarkFleetTrace's shape (sprint-aware, token-permit racks,
// full-level tracing, top-3 probes): records go into a chunked log and
// payloads into trace.Slabs chunks, so 5× the requests — tens of
// thousands more records — may cost about one extra allocation per
// hundred records. A per-record new or &T{} in emit, event, decision or
// the alternatives would cost one or more per record and fail loudly.
func TestTracedRunAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	cfgFor := func(requests int) Config {
		cfg := DefaultConfig(SprintAware)
		cfg.Nodes = 64
		cfg.Requests = requests
		cfg.Seed = 3
		cfg.Coordination = TokenPermit
		cfg.RackSize = 16
		cfg.Trace = TraceConfig{Level: trace.LevelFull, TopK: 3, WindowS: 5}
		return cfg
	}
	ctx := context.Background()
	run := func(requests int) (allocs float64, records int) {
		allocs = testing.AllocsPerRun(3, func() {
			_, tr, err := Run(ctx, Spec{Config: cfgFor(requests)})
			if err != nil {
				t.Fatal(err)
			}
			records = len(tr.Records)
		})
		return allocs, records
	}
	smallAllocs, smallRecords := run(2000)
	largeAllocs, largeRecords := run(10000)
	extra := largeRecords - smallRecords
	if extra < 20000 {
		t.Fatalf("5× the requests recorded only %d more records; the pin needs tens of thousands", extra)
	}
	if delta, limit := largeAllocs-smallAllocs, float64(extra/100+32); delta > limit {
		t.Errorf("%d more records cost %.0f extra allocations (%.0f → %.0f), want ≤ %.0f; the recorder is allocating per record",
			extra, delta, smallAllocs, largeAllocs, limit)
	}
	t.Logf("%d → %d records: %.0f → %.0f allocations", smallRecords, largeRecords, smallAllocs, largeAllocs)
}

// TestHedgeSuppressionCounted pins the silent-hedge bugfix: under
// overload into tiny queues most hedge checks find no spare capacity
// anywhere, and those suppressed hedges must be counted rather than
// vanish. The exact count is pinned because the simulation is a pure
// function of the config.
func TestHedgeSuppressionCounted(t *testing.T) {
	cfg := DefaultConfig(Hedged)
	cfg.Nodes = 4
	cfg.Requests = 2000
	cfg.QueueCap = 2
	cfg.ArrivalRatePerS = 2 * float64(cfg.Nodes) / cfg.MeanWorkS // 2× overload
	m := mustSimulate(t, cfg)
	if m.HedgesSuppressed == 0 {
		t.Fatal("overload into 2-deep queues should suppress hedges")
	}
	const wantSuppressed = 238
	if m.HedgesSuppressed != wantSuppressed {
		t.Errorf("HedgesSuppressed = %d, want pinned %d", m.HedgesSuppressed, wantSuppressed)
	}
	// Every hedge check resolves exactly one way: issued, suppressed, or
	// moot (request already finished or dropped before the check fired).
	if m.HedgesIssued+m.HedgesSuppressed > m.Requests {
		t.Errorf("hedge accounting overflows the trace: %d issued + %d suppressed > %d requests",
			m.HedgesIssued, m.HedgesSuppressed, m.Requests)
	}
	// A lightly loaded fleet suppresses nothing.
	light := DefaultConfig(Hedged)
	light.Nodes = 16
	light.Requests = 500
	light.ArrivalRatePerS = 1
	lm := mustSimulate(t, light)
	if lm.HedgesSuppressed != 0 {
		t.Errorf("light load suppressed %d hedges, want 0", lm.HedgesSuppressed)
	}
}

// TestHistogramQuantileContract verifies the streaming-vs-exact switch:
// above the cutoff the histogram path reports exact mean/max, flags
// ApproxQuantiles, and lands every percentile within one log-scale bin
// (≤ 1.81%) of the exact buffered answer; ExactQuantiles opts back into
// buffering at any scale and reproduces the exact path bit-for-bit.
func TestHistogramQuantileContract(t *testing.T) {
	big := DefaultConfig(LeastLoaded)
	big.Nodes = 64
	big.Requests = exactQuantileCutoff + 8000
	big.MeanWorkS = 0.2

	approx := mustSimulate(t, big)
	if !approx.ApproxQuantiles {
		t.Fatalf("%d requests should stream through the histogram", big.Requests)
	}

	exactCfg := big
	exactCfg.ExactQuantiles = true
	exact := mustSimulate(t, exactCfg)
	if exact.ApproxQuantiles {
		t.Fatal("ExactQuantiles must force the buffered path")
	}

	// Max is the same observed float in both modes; the means differ only
	// in summation order (the exact path sums after sorting), so compare
	// to machine precision.
	if approx.MaxS != exact.MaxS {
		t.Errorf("max must be exact in both modes: %.17g vs %.17g", approx.MaxS, exact.MaxS)
	}
	if math.Abs(approx.MeanS-exact.MeanS) > 1e-12*exact.MeanS {
		t.Errorf("mean must be exact in both modes: %.17g vs %.17g", approx.MeanS, exact.MeanS)
	}
	if approx.Completed != exact.Completed || approx.TotalEnergyJ != exact.TotalEnergyJ {
		t.Error("quantile mode must not change the simulation itself")
	}
	binFactor := math.Pow(10, 1.0/128)
	for _, q := range []struct {
		name         string
		approx, want float64
	}{
		{"p50", approx.P50S, exact.P50S},
		{"p95", approx.P95S, exact.P95S},
		{"p99", approx.P99S, exact.P99S},
		{"p999", approx.P999S, exact.P999S},
	} {
		if q.approx < q.want/binFactor || q.approx > q.want*binFactor {
			t.Errorf("%s: histogram %.6g vs exact %.6g exceeds the one-bin contract", q.name, q.approx, q.want)
		}
	}

	// Below the cutoff the default is already exact.
	small := mustSimulate(t, DefaultConfig(LeastLoaded))
	if small.ApproxQuantiles {
		t.Error("small traces must keep exact quantiles by default")
	}
}
