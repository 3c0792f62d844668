package fleet

import (
	"context"
	"math"
	"reflect"
	"testing"
)

// flashCrowdChurn is the canonical dynamic scenario: steady load, a 2×
// flash-crowd step, an exponential recovery — with node failure/recovery
// churn running throughout. 16 nodes at a base rate of 90% of sustained
// capacity, so the surge pushes the fleet well past saturation.
func flashCrowdChurn() (Config, Scenario) {
	cfg := DefaultConfig(SprintAware)
	cfg.Nodes = 16
	cfg.Seed = 7
	sc := Scenario{
		BaseRatePerS: 0.9 * 16 / 2,
		Phases: []Phase{
			{Name: "baseline", DurationS: 60, StartFactor: 0.7},
			{Name: "surge", DurationS: 40, StartFactor: 2.0},
			{Name: "recovery", DurationS: 60, Shape: ShapeDecay, StartFactor: 2.0, EndFactor: 0.5},
		},
		Churn: Churn{MTBFS: 20, MeanDowntimeS: 5},
	}
	return cfg, sc
}

func mustScenario(t *testing.T, cfg Config, sc Scenario) Metrics {
	t.Helper()
	m, _, err := Run(context.Background(), Spec{Config: cfg, Scenario: &sc})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestScenarioDeterminism is the scenario engine's contract: a flash
// crowd with failure churn is a pure function of (Config, Scenario), so
// two runs are deeply equal and the headline numbers match a pinned
// snapshot (which only moves when the model itself changes — and such a
// change should be a conscious one).
func TestScenarioDeterminism(t *testing.T) {
	cfg, sc := flashCrowdChurn()
	a := mustScenario(t, cfg, sc)
	b := mustScenario(t, cfg, sc)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two runs of the same scenario differ:\n%+v\n%+v", a, b)
	}
	const (
		wantRequests = 1363
		wantFailures = 6
		wantP99      = 11.890708259770
		wantSurgeP99 = 11.946094609297
	)
	if a.Requests != wantRequests {
		t.Errorf("Requests = %d, want pinned %d", a.Requests, wantRequests)
	}
	if a.NodeFailures != wantFailures {
		t.Errorf("NodeFailures = %d, want pinned %d", a.NodeFailures, wantFailures)
	}
	if math.Abs(a.P99S-wantP99) > 1e-9 {
		t.Errorf("P99S = %.12f, want pinned %.12f", a.P99S, wantP99)
	}
	if len(a.Phases) != 3 {
		t.Fatalf("got %d phase metrics, want 3", len(a.Phases))
	}
	if surge := a.Phases[1]; math.Abs(surge.P99S-wantSurgeP99) > 1e-9 {
		t.Errorf("surge P99S = %.12f, want pinned %.12f", surge.P99S, wantSurgeP99)
	}
}

// TestScenarioIndexedMatchesReference extends the cross-implementation
// determinism suite to dynamic fleets: with phases, ambient swings, and
// churn all active, the O(log N) dispatch index (whose keys must survive
// nodes dying and rejoining) must produce Metrics identical to the
// linear-scan reference selector, for every policy and with rack
// coordination on top.
func TestScenarioIndexedMatchesReference(t *testing.T) {
	if refDispatch {
		t.Fatal("refDispatch already set")
	}
	cfg, sc := flashCrowdChurn()
	cfg.QueueCap = 8 // overload the surge so the full-node paths fire
	sc.Phases[1].AmbientDeltaC = 12
	for _, p := range Policies() {
		for _, c := range []Coordination{NoCoordination, TokenPermit, Uncoordinated} {
			cfg.Policy = p
			cfg.Coordination = c
			cfg.RackSize = 0
			cfg.RackPowerBudgetW = 0
			indexed := mustScenario(t, cfg, sc)
			refDispatch = true
			ref := mustScenario(t, cfg, sc)
			refDispatch = false
			if !reflect.DeepEqual(indexed, ref) {
				t.Errorf("%s/%s: indexed dispatch diverged from the reference scan under churn:\nindexed: %+v\nref:     %+v",
					p, c, indexed, ref)
			}
		}
	}
}

// TestScenarioChurnAccounting: every request is accounted for even while
// nodes die mid-service — completed or dropped, never lost — per-node
// drops sum to the fleet total, and orphaned copies visibly fail over.
func TestScenarioChurnAccounting(t *testing.T) {
	cfg, sc := flashCrowdChurn()
	cfg.QueueCap = 4 // small queues: failovers must sometimes drop
	sc.Churn = Churn{MTBFS: 5, MeanDowntimeS: 8}
	for _, p := range Policies() {
		cfg.Policy = p
		m := mustScenario(t, cfg, sc)
		if m.NodeFailures == 0 || m.NodeRecoveries == 0 {
			t.Fatalf("%s: churn should fail and recover nodes: %d/%d", p, m.NodeFailures, m.NodeRecoveries)
		}
		if m.Redispatches == 0 {
			t.Errorf("%s: failing busy nodes should fail requests over", p)
		}
		if m.Completed+m.Dropped != m.Requests {
			t.Errorf("%s: requests unaccounted for under churn: %d completed + %d dropped != %d",
				p, m.Completed, m.Dropped, m.Requests)
		}
		drops, fails := 0, 0
		for _, n := range m.Nodes {
			drops += n.Dropped
			fails += n.Failures
		}
		if drops != m.Dropped {
			t.Errorf("%s: per-node drops %d != fleet drops %d", p, drops, m.Dropped)
		}
		if fails != m.NodeFailures {
			t.Errorf("%s: per-node failures %d != fleet failures %d", p, fails, m.NodeFailures)
		}
		offered, completed, dropped := 0, 0, 0
		for _, ph := range m.Phases {
			offered += ph.Offered
			completed += ph.Completed
			dropped += ph.Dropped
		}
		if offered != m.Requests || completed != m.Completed || dropped != m.Dropped {
			t.Errorf("%s: phase sums diverge from totals: offered %d/%d completed %d/%d dropped %d/%d",
				p, offered, m.Requests, completed, m.Completed, dropped, m.Dropped)
		}
	}
}

// TestScenarioFlashCrowdHurts: the per-phase breakdown must actually
// resolve the dynamics — the 2× surge phase shows a worse tail than the
// baseline phase that preceded it.
func TestScenarioFlashCrowdHurts(t *testing.T) {
	cfg, sc := flashCrowdChurn()
	sc.Churn = Churn{} // isolate the load dynamics
	m := mustScenario(t, cfg, sc)
	base, surge := m.Phases[0], m.Phases[1]
	if surge.P99S <= base.P99S {
		t.Errorf("a 2× flash crowd must hurt the tail: surge p99 %.3f s <= baseline %.3f s",
			surge.P99S, base.P99S)
	}
	if surge.Offered <= base.Offered*2/3 {
		t.Errorf("surge should offer far more load: %d vs %d over %0.f/%0.f s",
			surge.Offered, base.Offered, surge.EndS-surge.StartS, base.EndS-base.StartS)
	}
	if m.NodeFailures != 0 || m.Redispatches != 0 {
		t.Errorf("churn disabled but failures leaked: %d failures, %d redispatches",
			m.NodeFailures, m.Redispatches)
	}
}

// TestScenarioAmbientSwing: a hot phase shrinks every governor's budget,
// so sprint denials rise against an otherwise identical scenario. The
// load is kept at the same absolute rate; only the environment moves.
func TestScenarioAmbientSwing(t *testing.T) {
	cfg, sc := flashCrowdChurn()
	sc.Churn = Churn{}
	cool := mustScenario(t, cfg, sc)
	hot := sc
	hot.Phases = append([]Phase(nil), sc.Phases...)
	hot.Phases[1].AmbientDeltaC = 20 // 25 °C design ambient → 45 °C surge
	hotM := mustScenario(t, cfg, hot)
	if hotM.SprintDenialRate <= cool.SprintDenialRate {
		t.Errorf("a +20 °C surge must deny more sprints: %.4f <= %.4f",
			hotM.SprintDenialRate, cool.SprintDenialRate)
	}
	if hotM.Phases[1].P99S <= cool.Phases[1].P99S {
		t.Errorf("a hot surge should have a worse tail: %.3f s <= %.3f s",
			hotM.Phases[1].P99S, cool.Phases[1].P99S)
	}
	if hotM.Requests != cool.Requests {
		t.Errorf("ambient must not change the arrival trace: %d vs %d requests",
			hotM.Requests, cool.Requests)
	}
}

// TestScenarioHeterogeneousClasses: a fleet of few powerful nodes beside
// many weak ones runs through the class-aware paths (including the
// sprint-aware reference fallback), keeps full accounting, and the
// powerful class visibly carries more of the work per node.
func TestScenarioHeterogeneousClasses(t *testing.T) {
	// Light steady load first: with idle gaps refilling every budget, all
	// services sprint start-to-finish, so the wide class's per-request
	// service time is cleanly half the narrow class's under every policy.
	cfg, _ := flashCrowdChurn()
	light := Scenario{
		BaseRatePerS: 3,
		Phases:       []Phase{{Name: "steady", DurationS: 120}},
		Classes: []NodeClass{
			{Name: "big", Count: 4, SprintWidth: 32, BudgetScale: 2, DrainScale: 2},
			{Name: "small", Count: 12, NominalPowerW: 0.5},
		},
	}
	for _, p := range []Policy{RoundRobin, LeastLoaded, SprintAware, Hedged} {
		cfg.Policy = p
		m := mustScenario(t, cfg, light)
		if m.Completed+m.Dropped != m.Requests {
			t.Fatalf("%s: unaccounted requests with classes: %d + %d != %d", p, m.Completed, m.Dropped, m.Requests)
		}
		if len(m.Nodes) != 16 {
			t.Fatalf("%s: class counts should size the fleet: %d nodes", p, len(m.Nodes))
		}
		var bigBusy, smallBusy float64
		bigServed, smallServed := 0, 0
		for _, n := range m.Nodes {
			if n.ID < 4 {
				bigBusy += n.BusyS
				bigServed += n.Served
			} else {
				smallBusy += n.BusyS
				smallServed += n.Served
			}
		}
		if bigServed == 0 {
			t.Fatalf("%s: the wide class should serve: %d/%d", p, bigServed, smallServed)
		}
		if p == SprintAware {
			// Routing on projected finish concentrates light load onto the
			// class that finishes every request twice as fast.
			if bigServed <= smallServed {
				t.Errorf("sprint-aware should favor the wide class: %d vs %d served", bigServed, smallServed)
			}
			continue
		}
		if smallServed == 0 {
			t.Fatalf("%s: spread policies should exercise both classes: %d/%d", p, bigServed, smallServed)
		}
		bigPer, smallPer := bigBusy/float64(bigServed), smallBusy/float64(smallServed)
		if bigPer >= 0.75*smallPer {
			t.Errorf("%s: 32-wide nodes should serve far faster per request: %.3f s vs %.3f s",
				p, bigPer, smallPer)
		}
	}

	// The full flash crowd + churn on the heterogeneous fleet still
	// accounts for every request (the sprint-aware class-aware reference
	// path, failover, and per-phase attribution all composed).
	cfg, sc := flashCrowdChurn()
	sc.Classes = light.Classes
	m := mustScenario(t, cfg, sc)
	if m.Completed+m.Dropped != m.Requests {
		t.Fatalf("unaccounted requests in heterogeneous flash crowd: %d + %d != %d",
			m.Completed, m.Dropped, m.Requests)
	}
	if m.NodeFailures == 0 {
		t.Error("churn should still fail nodes in a heterogeneous fleet")
	}
}

// TestScenarioPermitReleaseOnFailure: a node killed mid-sprint must
// return its rack draw and TokenPermit grant immediately — the finish()
// rack invariant panics on any leak — and token-permit racks stay
// trip-free even while churn reshuffles the membership.
func TestScenarioPermitReleaseOnFailure(t *testing.T) {
	cfg, sc := flashCrowdChurn()
	cfg.Coordination = TokenPermit
	cfg.RackSize = 8
	cfg.RackPowerBudgetW = RackBudgetW(8, 1, cfg.Node)
	cfg.RackBufferJ = 5                          // a tight buffer that overlapping surge sprints can empty
	sc.Churn = Churn{MTBFS: 3, MeanDowntimeS: 4} // aggressive churn
	m := mustScenario(t, cfg, sc)
	if m.NodeFailures == 0 {
		t.Fatal("aggressive churn should fail nodes")
	}
	if m.BreakerTrips != 0 {
		t.Errorf("token-permit must stay trip-free under churn, got %d trips", m.BreakerTrips)
	}
	if m.PermitRequests == 0 || m.PermitDenials == 0 {
		t.Errorf("a one-sprinter rack budget under surge load should see permit traffic: %d/%d",
			m.PermitRequests, m.PermitDenials)
	}
	// Uncoordinated racks under the same churn still account exactly
	// (failed sprinters retire their draw, so the trip projections stay
	// consistent — any pairing bug panics in finish()).
	cfg.Coordination = Uncoordinated
	un := mustScenario(t, cfg, sc)
	if un.BreakerTrips == 0 {
		t.Error("an overloaded uncoordinated rack should still trip during the surge")
	}
}

// TestScenarioValidate walks the declarative surface's error paths.
func TestScenarioValidate(t *testing.T) {
	cfg, _ := flashCrowdChurn()
	bad := []Scenario{
		{},                                // no phases
		{Phases: []Phase{{DurationS: 0}}}, // zero duration
		{Phases: []Phase{{DurationS: 1, Shape: "spiral"}}},
		{Phases: []Phase{{DurationS: 1, StartFactor: -2}}},
		{Phases: []Phase{{DurationS: 1, AmbientDeltaC: 80}}},                // ambient above PCM melt
		{Phases: []Phase{{DurationS: 1}}, Classes: []NodeClass{{Count: 3}}}, // counts != nodes and invalid
		{Phases: []Phase{{DurationS: 1}}, Classes: []NodeClass{{Count: 16, NominalPowerW: 20}}},
		{Phases: []Phase{{DurationS: 1}}, Classes: []NodeClass{{Count: 16, BudgetScale: -1}}},
		{Phases: []Phase{{DurationS: 1}}, Churn: Churn{MTBFS: -1}},
		{Phases: []Phase{{DurationS: 1}}, MaxRequests: -5},
	}
	for i, sc := range bad {
		if _, _, err := Run(context.Background(), Spec{Config: cfg, Scenario: &sc}); err == nil {
			t.Errorf("scenario %d should fail validation", i)
		}
	}
	_, good := flashCrowdChurn()
	if err := good.withDefaults().Validate(cfg.withDefaults()); err != nil {
		t.Errorf("canonical scenario invalid: %v", err)
	}
}

// TestScenarioBaseRateDefault: with no explicit base rate the scenario
// inherits the config's effective rate, so factor 1.0 means the same
// ≈85%-of-capacity regime the plain simulator defaults to.
func TestScenarioBaseRateDefault(t *testing.T) {
	cfg, sc := flashCrowdChurn()
	sc.BaseRatePerS = 0
	sc.Churn = Churn{}
	m := mustScenario(t, cfg, sc)
	// 160 simulated seconds at ~0.85*8 req/s scaled by the phase factors:
	// anything in the right order of magnitude proves the default took.
	if m.Requests < 500 || m.Requests > 3000 {
		t.Errorf("default base rate produced an implausible trace: %d requests", m.Requests)
	}
}

// TestScenarioQuantileModeSwitch: above the exact-quantile cutoff the
// per-phase accumulators stream into histograms exactly when the overall
// run does, and flipping ExactQuantiles switches both back to buffered —
// with every per-phase percentile agreeing within the histogram's
// one-bin contract and the simulation itself unchanged.
func TestScenarioQuantileModeSwitch(t *testing.T) {
	cfg := DefaultConfig(LeastLoaded)
	cfg.Nodes = 64
	cfg.MeanWorkS = 0.2
	cfg.Seed = 3
	sc := Scenario{
		BaseRatePerS: 0.9 * 64 / 0.2,
		Phases: []Phase{
			{Name: "steady", DurationS: 340},
			{Name: "surge", DurationS: 140, StartFactor: 1.3},
		},
	}
	approx := mustScenario(t, cfg, sc)
	if approx.Requests <= exactQuantileCutoff {
		t.Fatalf("scenario too small to cross the cutoff: %d requests", approx.Requests)
	}
	if !approx.ApproxQuantiles {
		t.Fatal("a past-cutoff scenario should stream quantiles")
	}
	cfg.ExactQuantiles = true
	exact := mustScenario(t, cfg, sc)
	if exact.ApproxQuantiles {
		t.Fatal("ExactQuantiles must force buffering in scenario mode too")
	}
	if approx.Completed != exact.Completed || approx.TotalEnergyJ != exact.TotalEnergyJ {
		t.Error("quantile mode must not change the simulation itself")
	}
	binFactor := math.Pow(10, 1.0/128)
	for i := range exact.Phases {
		a, e := approx.Phases[i], exact.Phases[i]
		if a.Offered != e.Offered || a.Completed != e.Completed {
			t.Fatalf("phase %s: counts differ across quantile modes", e.Name)
		}
		if a.MaxS != e.MaxS {
			t.Errorf("phase %s: max must stay exact in both modes: %g vs %g", e.Name, a.MaxS, e.MaxS)
		}
		for _, q := range []struct {
			name   string
			av, ev float64
		}{{"p50", a.P50S, e.P50S}, {"p99", a.P99S, e.P99S}, {"p999", a.P999S, e.P999S}} {
			if q.av < q.ev/binFactor || q.av > q.ev*binFactor {
				t.Errorf("phase %s %s: histogram %.6g vs exact %.6g exceeds one bin", e.Name, q.name, q.av, q.ev)
			}
		}
	}
}

// TestScenarioRequestCapIsLoud: a scenario whose rate × duration blows
// past MaxRequests fails with a diagnostic instead of silently
// truncating the timeline (trailing phases would otherwise read as
// mysteriously idle).
func TestScenarioRequestCapIsLoud(t *testing.T) {
	cfg, sc := flashCrowdChurn()
	sc.MaxRequests = 100 // the 160 s timeline offers ~1400 arrivals
	if _, _, err := Run(context.Background(), Spec{Config: cfg, Scenario: &sc}); err == nil {
		t.Fatal("a capped-out scenario should fail loudly")
	}
}
