package fleet

import (
	"math"
	"reflect"
	"testing"
)

// rackContrast returns the regime where rack coordination earns its keep:
// one 16-node rack provisioned for a single concurrent sprinter (the §3
// time-shifted budget made literal — average sprint demand at this load
// slightly exceeds the circuit), overloaded past sustained capacity so
// trips are frequent and recovery windows hurt.
func rackContrast(c Coordination) Config {
	cfg := DefaultConfig(SprintAware)
	cfg.Nodes = 16
	cfg.Requests = 4000
	cfg.Seed = 1
	cfg.Coordination = c
	cfg.RackSize = 16
	cfg.RackPowerBudgetW = RackBudgetW(16, 1, cfg.Node)
	cfg.BreakerRecoveryS = 4
	cfg.ArrivalRatePerS = 1.2 * float64(cfg.Nodes) / cfg.MeanWorkS
	return cfg
}

func TestRackDeterminism(t *testing.T) {
	for _, c := range Coordinations() {
		a := mustSimulate(t, rackContrast(c))
		b := mustSimulate(t, rackContrast(c))
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two runs of the same config differ:\n%+v\n%+v", c, a, b)
		}
	}
}

// TestUncoordinatedTripsTokenPermitDoesNot is the subsystem's headline
// contrast: concurrent unpermitted sprints overload the branch circuit,
// drain the buffer, and trip the breaker — and the recovery windows cost
// more tail latency than token-permit's up-front denials. Token permits
// never trip by construction (admitted sprints always fit the budget).
func TestUncoordinatedTripsTokenPermitDoesNot(t *testing.T) {
	un := mustSimulate(t, rackContrast(Uncoordinated))
	tok := mustSimulate(t, rackContrast(TokenPermit))
	if un.BreakerTrips == 0 || un.RackThrottledS == 0 {
		t.Fatalf("overloaded uncoordinated rack should trip: trips=%d throttled=%.1f s",
			un.BreakerTrips, un.RackThrottledS)
	}
	if tok.BreakerTrips != 0 || tok.RackThrottledS != 0 {
		t.Errorf("token-permit must never trip: trips=%d throttled=%.1f s",
			tok.BreakerTrips, tok.RackThrottledS)
	}
	if tok.P99S >= un.P99S {
		t.Errorf("token-permit p99 %.3f s should beat the tripped uncoordinated rack's %.3f s",
			tok.P99S, un.P99S)
	}
	if tok.PermitDenials == 0 {
		t.Error("a one-sprinter budget must deny permits under overload")
	}
	// The trip recovery windows also deny sprints, so uncoordinated pays
	// twice: denials during recovery plus the throttled queues.
	if un.PermitDenials == 0 {
		t.Error("recovery windows should record denied sprint requests")
	}
}

// TestProbabilisticSitsBetween: headroom-proportional admission throttles
// smoothly — far fewer denials than token-permit's hard cap — and backs
// off as the buffer drains instead of riding it into a trip.
func TestProbabilisticSitsBetween(t *testing.T) {
	un := mustSimulate(t, rackContrast(Uncoordinated))
	tok := mustSimulate(t, rackContrast(TokenPermit))
	prob := mustSimulate(t, rackContrast(Probabilistic))
	if prob.PermitDenialRate >= tok.PermitDenialRate {
		t.Errorf("probabilistic denial rate %.3f should be below token-permit's hard-cap %.3f",
			prob.PermitDenialRate, tok.PermitDenialRate)
	}
	if prob.BreakerTrips > un.BreakerTrips {
		t.Errorf("buffer-aware backoff cannot trip more than uncoordinated: %d > %d",
			prob.BreakerTrips, un.BreakerTrips)
	}
	if prob.P99S >= un.P99S {
		t.Errorf("probabilistic p99 %.3f s should beat the tripped uncoordinated rack's %.3f s",
			prob.P99S, un.P99S)
	}
}

// TestRackAccounting: racks partition the fleet (a 20-node fleet in racks
// of 8 is 8+8+4), per-rack energy sums to the fleet total, and per-node
// rack assignments agree with the partition.
func TestRackAccounting(t *testing.T) {
	cfg := rackContrast(Uncoordinated)
	cfg.Nodes = 20
	cfg.RackSize = 8
	cfg.RackPowerBudgetW = 0 // re-derive the default for this rack size
	cfg = cfg.withDefaults()
	m := mustSimulate(t, cfg)
	if len(m.Racks) != 3 {
		t.Fatalf("20 nodes in racks of 8 should make 3 racks, got %d", len(m.Racks))
	}
	wantSizes := []int{8, 8, 4}
	rackJ := 0.0
	for i, r := range m.Racks {
		if r.ID != i || r.Nodes != wantSizes[i] {
			t.Errorf("rack %d: got ID %d with %d nodes, want %d nodes", i, r.ID, r.Nodes, wantSizes[i])
		}
		rackJ += r.EnergyJ
	}
	if math.Abs(rackJ-m.TotalEnergyJ) > 1e-9 {
		t.Errorf("per-rack energy %.3f J does not add up to fleet total %.3f J", rackJ, m.TotalEnergyJ)
	}
	for _, n := range m.Nodes {
		if n.Rack != n.ID/8 {
			t.Errorf("node %d assigned to rack %d, want %d", n.ID, n.Rack, n.ID/8)
		}
	}
}

// TestNoCoordinationHasNoRackState: the zero-value Coordination keeps the
// pre-rack behavior — no racks, no trips, no permit traffic.
func TestNoCoordinationHasNoRackState(t *testing.T) {
	m := mustSimulate(t, highLoad(SprintAware))
	if m.Racks != nil || m.BreakerTrips != 0 || m.PermitRequests != 0 || m.PermitDenials != 0 {
		t.Errorf("NoCoordination leaked rack state: %+v", m)
	}
}

// TestDropAttributionEveryPolicy is the regression test for unattributed
// fleet-wide drops: when scanBest finds no eligible node the drop is
// charged to the node the request would have joined, so per-node drops
// always sum to the fleet total under every policy.
func TestDropAttributionEveryPolicy(t *testing.T) {
	for _, p := range Policies() {
		cfg := DefaultConfig(p)
		cfg.Nodes = 4
		cfg.Requests = 2000
		cfg.QueueCap = 2
		cfg.ArrivalRatePerS = 2 * float64(cfg.Nodes) / cfg.MeanWorkS // 2× overload
		m := mustSimulate(t, cfg)
		if m.Dropped == 0 {
			t.Fatalf("%s: 2× overload into 2-deep queues should drop requests", p)
		}
		sum := 0
		for _, n := range m.Nodes {
			sum += n.Dropped
		}
		if sum != m.Dropped {
			t.Errorf("%s: per-node drops %d != fleet drops %d", p, sum, m.Dropped)
		}
	}
}

// TestCoordinationRoundTrip mirrors the policy name round-trip.
func TestCoordinationRoundTrip(t *testing.T) {
	for _, c := range append([]Coordination{NoCoordination}, Coordinations()...) {
		got, err := ParseCoordination(c.String())
		if err != nil || got != c {
			t.Errorf("ParseCoordination(%q) = %v, %v", c.String(), got, err)
		}
	}
	if _, err := ParseCoordination("bogus"); err == nil {
		t.Error("bogus coordination should not parse")
	}
}

func TestRackValidate(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Coordination = Coordination(99) },
		func(c *Config) { c.RackSize = -1 },
		func(c *Config) { c.RackPowerBudgetW = 0.5 * float64(c.RackSize) * c.Node.NominalPowerW },
		func(c *Config) { c.RackBufferJ = -1 },
		func(c *Config) { c.SprintPermits = -1 },
		func(c *Config) { c.BreakerRecoveryS = -1 },
		// A NaN budget used to loop forever; a NaN buffer tripped 158
		// breakers where the finite default trips none.
		func(c *Config) { c.RackPowerBudgetW = math.NaN() },
		func(c *Config) { c.RackBufferJ = math.NaN() },
	}
	for i, mutate := range bad {
		cfg := rackContrast(TokenPermit).withDefaults()
		mutate(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	for _, c := range Coordinations() {
		if err := rackContrast(c).withDefaults().Validate(); err != nil {
			t.Errorf("contrast %s config invalid: %v", c, err)
		}
	}
}
