package fleet

import (
	"context"
	"math"
	"reflect"
	"testing"

	"sprinting/internal/session"
)

// highLoad returns an 8-node fleet offered 95% of sustained capacity —
// the regime where dispatch policy dominates the tail.
func highLoad(p Policy) Config {
	cfg := DefaultConfig(p)
	cfg.Nodes = 8
	cfg.Requests = 4000
	cfg.Seed = 1
	cfg.ArrivalRatePerS = 0.95 * float64(cfg.Nodes) / cfg.MeanWorkS
	return cfg
}

func mustSimulate(t *testing.T, cfg Config) Metrics {
	t.Helper()
	m, _, err := Run(context.Background(), Spec{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSimulateDeterministic(t *testing.T) {
	for _, p := range Policies() {
		a := mustSimulate(t, highLoad(p))
		b := mustSimulate(t, highLoad(p))
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two runs of the same config differ:\n%+v\n%+v", p, a, b)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	cfg := highLoad(SprintAware)
	a := mustSimulate(t, cfg)
	cfg.Seed = 2
	b := mustSimulate(t, cfg)
	if a.P99S == b.P99S && a.TotalEnergyJ == b.TotalEnergyJ {
		t.Error("different seeds produced identical metrics")
	}
}

// TestSeedStableP99 pins the default-config tail latency: the simulation
// is a pure function of the config, so these values only move when the
// model itself changes (and a change should be a conscious one).
func TestSeedStableP99(t *testing.T) {
	m := mustSimulate(t, DefaultConfig(SprintAware))
	const wantP99 = 0.597210506518
	if math.Abs(m.P99S-wantP99) > 1e-9 {
		t.Errorf("sprint-aware default p99 = %.12f, want %.12f", m.P99S, wantP99)
	}
	rr := mustSimulate(t, DefaultConfig(RoundRobin))
	const wantRRP99 = 0.660632424168
	if math.Abs(rr.P99S-wantRRP99) > 1e-9 {
		t.Errorf("round-robin default p99 = %.12f, want %.12f", rr.P99S, wantRRP99)
	}
}

// TestSprintAwareBeatsRoundRobinP99AtHighLoad is the policy's reason to
// exist: routing on thermal headroom keeps the tail down when a
// state-blind dispatcher queues requests behind budget-depleted nodes.
func TestSprintAwareBeatsRoundRobinP99AtHighLoad(t *testing.T) {
	rr := mustSimulate(t, highLoad(RoundRobin))
	sa := mustSimulate(t, highLoad(SprintAware))
	if sa.P99S >= rr.P99S*0.9 {
		t.Errorf("sprint-aware p99 %.3f s should beat round-robin %.3f s by a clear margin",
			sa.P99S, rr.P99S)
	}
	if sa.P999S >= rr.P999S {
		t.Errorf("sprint-aware p999 %.3f s should beat round-robin %.3f s", sa.P999S, rr.P999S)
	}
	if sa.SprintDenialRate > rr.SprintDenialRate {
		t.Errorf("headroom-aware routing should not deny more sprints (%.4f vs %.4f)",
			sa.SprintDenialRate, rr.SprintDenialRate)
	}
}

// TestHedgingTradesEnergyForTail: duplicated dispatch must buy tail
// latency over its own base policy (least-loaded) and pay for it in
// duplicated service energy.
func TestHedgingTradesEnergyForTail(t *testing.T) {
	ll := mustSimulate(t, highLoad(LeastLoaded))
	h := mustSimulate(t, highLoad(Hedged))
	if h.HedgesIssued == 0 || h.HedgeWins == 0 {
		t.Fatalf("high load should trigger hedges: issued=%d wins=%d", h.HedgesIssued, h.HedgeWins)
	}
	if h.P999S >= ll.P999S {
		t.Errorf("hedged p999 %.3f s should beat least-loaded %.3f s", h.P999S, ll.P999S)
	}
	if h.TotalEnergyJ <= ll.TotalEnergyJ {
		t.Errorf("hedging must cost energy: %.1f J vs %.1f J", h.TotalEnergyJ, ll.TotalEnergyJ)
	}
}

func TestPercentilesOrdered(t *testing.T) {
	for _, p := range Policies() {
		m := mustSimulate(t, highLoad(p))
		if !(m.P50S <= m.P95S && m.P95S <= m.P99S && m.P99S <= m.P999S && m.P999S <= m.MaxS) {
			t.Errorf("%s: percentiles out of order: %+v", p, m)
		}
		if m.MeanS <= 0 || m.ThroughputRPS <= 0 {
			t.Errorf("%s: degenerate metrics: %+v", p, m)
		}
	}
}

// TestEnergyAccounting: with no sprint denials every request is served
// entirely at sprint power for work/width seconds, so total service energy
// equals total offered work in joules (P·work/width = work for the 16 W ×
// 16-core platform).
func TestEnergyAccounting(t *testing.T) {
	cfg := DefaultConfig(SprintAware)
	cfg.Nodes = 32
	cfg.Requests = 500
	cfg.ArrivalRatePerS = 2 // light load: no denials
	m := mustSimulate(t, cfg)
	if m.SprintDenialRate != 0 {
		t.Fatalf("light load should have zero denials, got %.4f", m.SprintDenialRate)
	}
	bursts := session.GenerateBursts(cfg.Requests, 1/cfg.EffectiveRatePerS(), cfg.MeanWorkS, cfg.Seed)
	wantJ := 0.0
	for _, b := range bursts {
		wantJ += b.WorkS
	}
	if math.Abs(m.TotalEnergyJ-wantJ) > 1e-6*wantJ {
		t.Errorf("total energy %.3f J, want offered work %.3f J", m.TotalEnergyJ, wantJ)
	}
	sum := 0.0
	for _, n := range m.Nodes {
		sum += n.EnergyJ
	}
	if math.Abs(sum-m.TotalEnergyJ) > 1e-9 {
		t.Errorf("per-node energy %.3f J does not add up to total %.3f J", sum, m.TotalEnergyJ)
	}
}

// TestBoundedQueueDrops: a tiny queue under overload must shed load, and
// every request is accounted for as completed or dropped.
func TestBoundedQueueDrops(t *testing.T) {
	cfg := DefaultConfig(RoundRobin)
	cfg.Nodes = 4
	cfg.Requests = 2000
	cfg.QueueCap = 2
	cfg.ArrivalRatePerS = 2 * float64(cfg.Nodes) / cfg.MeanWorkS // 2× overload
	m := mustSimulate(t, cfg)
	if m.Dropped == 0 {
		t.Fatal("2× overload into 2-deep queues should drop requests")
	}
	if m.Completed+m.Dropped != m.Requests {
		t.Errorf("requests unaccounted for: %d completed + %d dropped != %d",
			m.Completed, m.Dropped, m.Requests)
	}
	drops := 0
	for _, n := range m.Nodes {
		drops += n.Dropped
	}
	if drops != m.Dropped {
		t.Errorf("per-node drops %d != fleet drops %d", drops, m.Dropped)
	}
}

// TestDenialRateRisesWithLoad: the sprint-denial rate is the fleet-level
// readout of the paper's budget exhaustion.
func TestDenialRateRisesWithLoad(t *testing.T) {
	light := DefaultConfig(RoundRobin)
	light.Nodes = 8
	light.Requests = 1000
	light.ArrivalRatePerS = 0.5
	heavy := light
	heavy.ArrivalRatePerS = 1.6 * float64(heavy.Nodes) / heavy.MeanWorkS
	lm := mustSimulate(t, light)
	hm := mustSimulate(t, heavy)
	if lm.SprintDenialRate != 0 {
		t.Errorf("light load denial rate %.4f, want 0", lm.SprintDenialRate)
	}
	if hm.SprintDenialRate <= lm.SprintDenialRate {
		t.Errorf("denial rate should rise with load: %.4f -> %.4f",
			lm.SprintDenialRate, hm.SprintDenialRate)
	}
}

func TestValidate(t *testing.T) {
	bad := []Config{
		{Nodes: -1},
		func() Config { c := DefaultConfig(Hedged); c.Nodes = 1; return c }(),
		func() Config { c := DefaultConfig(Hedged); c.HedgeDelayS = -1; return c }(),
		func() Config { c := DefaultConfig(RoundRobin); c.QueueCap = -1; return c }(),
		func() Config { c := DefaultConfig(RoundRobin); c.Policy = Policy(99); return c }(),
		func() Config { c := DefaultConfig(RoundRobin); c.Node.SprintPowerW = -5; return c }(),
		// Non-finite floats, each reachable from the CLI (flag.Float64
		// parses NaN and Inf): NaN work with an explicit rate used to
		// report p99 = mean = 0, and +Inf work a p99 of +Inf.
		func() Config {
			c := DefaultConfig(RoundRobin)
			c.ArrivalRatePerS = 4
			c.MeanWorkS = math.NaN()
			return c
		}(),
		func() Config {
			c := DefaultConfig(RoundRobin)
			c.ArrivalRatePerS = 4
			c.MeanWorkS = math.Inf(1)
			return c
		}(),
		// A NaN hedge delay used to report a mean latency of −0.92 s.
		func() Config { c := DefaultConfig(Hedged); c.HedgeDelayS = math.NaN(); return c }(),
	}
	for i, cfg := range bad {
		if _, _, err := Run(context.Background(), Spec{Config: cfg.withDefaults()}); err == nil {
			t.Errorf("config %d should fail validation", i)
		}
	}
	for _, p := range Policies() {
		if err := DefaultConfig(p).Validate(); err != nil {
			t.Errorf("default %s config invalid: %v", p, err)
		}
	}
}

func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := DefaultConfig(RoundRobin)
	cfg.Requests = 20000
	if _, _, err := Run(ctx, Spec{Config: cfg}); err == nil {
		t.Error("cancelled context should abort a large simulation")
	}
}

func TestPolicyRoundTrip(t *testing.T) {
	for _, p := range Policies() {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Error("bogus policy should not parse")
	}
}
