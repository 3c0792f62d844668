package fleet

import (
	"context"
	"math"
	"strings"
	"testing"

	"sprinting/internal/trace"
)

// relConfig returns a loaded 16-node fleet with the whole reliability
// layer armed: gray stragglers, transient faults, client timeouts, and
// budgeted retries.
func relConfig(p Policy) Config {
	cfg := DefaultConfig(p)
	cfg.Nodes = 16
	cfg.Requests = 2500
	cfg.Seed = 11
	cfg.ArrivalRatePerS = 1.05 * float64(cfg.Nodes) / cfg.MeanWorkS
	cfg.Reliability = Reliability{
		TimeoutS: 6, MaxRetries: 3, RetryBackoffS: 0.2,
		RetryBudgetPerS: 2, RetryBurst: 4,
		GrayFrac: 0.2, GraySlowdownX: 6,
		FaultProb: 0.02,
	}
	return cfg
}

// TestGrayNodesStretchTail: planting gray stragglers (and nothing else —
// no timeouts, no retries) must make the tail strictly worse than the
// fault-free run while leaving every request accounted Completed/Dropped.
func TestGrayNodesStretchTail(t *testing.T) {
	base := highLoad(LeastLoaded)
	clean := mustSimulate(t, base)
	gray := base
	gray.Reliability = Reliability{GrayFrac: 0.25, GraySlowdownX: 8}
	got := mustSimulate(t, gray)
	if got.P99S <= clean.P99S {
		t.Errorf("gray stragglers should stretch the tail: p99 %g <= fault-free %g", got.P99S, clean.P99S)
	}
	if got.Completed+got.Dropped != got.Requests {
		t.Errorf("gray-only run lost requests: %d + %d != %d", got.Completed, got.Dropped, got.Requests)
	}
	if got.GrayNodes != 2 {
		t.Errorf("GrayNodes = %d, want round(0.25·8) = 2", got.GrayNodes)
	}
}

// TestTimeoutBoundsLatencyWithoutRetries: with MaxRetries 0 a request
// either completes inside its timeout window or is terminally TimedOut,
// so the realized completion tail is bounded by TimeoutS; the services
// the client abandoned show up as WastedServices, not completions.
func TestTimeoutBoundsLatencyWithoutRetries(t *testing.T) {
	cfg := relConfig(LeastLoaded)
	cfg.Reliability = Reliability{TimeoutS: 4, GrayFrac: 0.25, GraySlowdownX: 8}
	m := mustSimulate(t, cfg)
	if m.TimedOut == 0 {
		t.Fatal("tight timeout over gray stragglers should expire requests")
	}
	if m.MaxS > 4+1e-9 {
		t.Errorf("completed latency %g exceeds the 4 s timeout", m.MaxS)
	}
	if m.WastedServices == 0 {
		t.Error("abandoned attempts that later finished should count as WastedServices")
	}
	if m.Retries != 0 || m.Shed != 0 {
		t.Errorf("MaxRetries 0 must not retry or shed: %d retries, %d shed", m.Retries, m.Shed)
	}
}

// TestRetryBudgetSheds: an exhausted token bucket converts would-be
// retries into Shed terminals, while an unbudgeted run never sheds.
func TestRetryBudgetSheds(t *testing.T) {
	cfg := relConfig(LeastLoaded)
	cfg.Reliability.RetryBudgetPerS = 0 // unbudgeted
	cfg.Reliability.RetryBurst = 0
	unbudgeted := mustSimulate(t, cfg)
	if unbudgeted.Shed != 0 {
		t.Errorf("unbudgeted retries must never shed, got %d", unbudgeted.Shed)
	}
	if unbudgeted.Retries == 0 {
		t.Fatal("the fixture should provoke retries")
	}
	cfg.Reliability.RetryBudgetPerS = 0.1 // starved bucket
	cfg.Reliability.RetryBurst = 1
	budgeted := mustSimulate(t, cfg)
	if budgeted.Shed == 0 {
		t.Error("a starved retry budget should shed requests")
	}
	if budgeted.Retries >= unbudgeted.Retries {
		t.Errorf("budget should cut retry volume: %d >= %d", budgeted.Retries, unbudgeted.Retries)
	}
}

// relChurnScenario is flashCrowdChurn with rack-level churn stacked on
// top; rack churn needs rack power domains, so the config is coordinated.
func relChurnScenario() (Config, Scenario) {
	cfg, sc := flashCrowdChurn()
	cfg.Coordination = TokenPermit
	cfg.RackSize = 4
	cfg.Reliability = Reliability{
		TimeoutS: 8, MaxRetries: 2, RetryBackoffS: 0.3,
		RetryBudgetPerS: 1, RetryBurst: 3,
		GrayFrac: 0.2, GraySlowdownX: 5,
		FaultProb: 0.01,
	}
	sc.Churn.RackMTBFS = 50
	sc.Churn.RackMeanDowntimeS = 4
	return cfg, sc
}

// TestRackChurnCorrelatedFailures drives rack power loss end to end
// through the flight recorder: every rack-fail event downs live members
// together (NodeFailures ≥ member failures per event is implied by the
// shared failNode path), and the trace interleaves the rack-fail record
// before its members' node-fail records.
func TestRackChurnCorrelatedFailures(t *testing.T) {
	cfg, sc := relChurnScenario()
	cfg.Reliability = Reliability{} // isolate rack churn
	cfg.Trace = TraceConfig{Level: trace.LevelDecisions}
	m, tr, err := Run(context.Background(), Spec{Config: traced(cfg), Scenario: &sc})
	if err != nil {
		t.Fatal(err)
	}
	rackFails := tr.Events("rack-fail")
	if len(rackFails) != m.RackFailures {
		t.Fatalf("rack-fail events %d != RackFailures %d", len(rackFails), m.RackFailures)
	}
	if m.RackFailures == 0 {
		t.Fatal("rack churn should fire")
	}
	// Each rack-fail must be followed (same instant) by node-fail records
	// for its members — at least one when any member was alive.
	nodeFails := tr.Events("node-fail")
	for _, rf := range rackFails {
		members := 0
		for _, nf := range nodeFails {
			if nf.AtS == rf.AtS && nf.Rack == rf.Rack {
				members++
			}
		}
		if members == 0 {
			t.Errorf("rack-fail at %g s downed no members", rf.AtS)
		}
	}
	if m.Completed+m.Dropped != m.Requests {
		t.Errorf("requests leaked under rack churn: %d + %d != %d", m.Completed, m.Dropped, m.Requests)
	}
}

// TestRackChurnNeedsCoordination: rack churn without rack power domains
// is rejected at validation — racks do not otherwise exist.
func TestRackChurnNeedsCoordination(t *testing.T) {
	cfg, sc := flashCrowdChurn()
	sc.Churn.RackMTBFS = 30
	if _, _, err := Run(context.Background(), Spec{Config: cfg, Scenario: &sc}); err == nil ||
		!strings.Contains(err.Error(), "rack power domains") {
		t.Errorf("rack churn without coordination should fail validation, got %v", err)
	}
	sc.Churn.RackMTBFS = -1
	cfg.Coordination = TokenPermit
	if _, _, err := Run(context.Background(), Spec{Config: cfg, Scenario: &sc}); err == nil {
		t.Error("negative rack MTBF accepted")
	}
}

// TestReliabilityValidate covers the layer's input validation.
func TestReliabilityValidate(t *testing.T) {
	bad := []Reliability{
		{TimeoutS: -1},
		{TimeoutS: math.Inf(1)},
		{TimeoutS: 5, MaxRetries: -2},
		{TimeoutS: 5, MaxRetries: 200}, // the attempt counter is a uint8
		{TimeoutS: 5, RetryBackoffS: -0.1},
		{TimeoutS: 5, RetryBudgetPerS: -3},
		{TimeoutS: 5, RetryBurst: -1},
		{GrayFrac: -0.1},
		{GrayFrac: 1.5},
		{GrayFrac: 0.5, GraySlowdownX: 0.5},
		{FaultProb: -0.1},
		{FaultProb: 1},
	}
	for _, rl := range bad {
		cfg := DefaultConfig(RoundRobin)
		cfg.Requests = 10
		cfg.Reliability = rl
		if _, _, err := Run(context.Background(), Spec{Config: cfg}); err == nil {
			t.Errorf("Reliability %+v accepted", rl)
		}
	}
}

// TestScenarioDowntimeClampRegression pins the downtime clamp: a
// near-zero MeanDowntimeS draws repair times that would round to the
// failure instant, and the math.Max(1e-3, …) clamp must keep every
// recovery strictly after its failure — with the recover record after
// the fail record — so the recover-before-fail event ordering can never
// invert. Covers both the node and the rack clamp.
func TestScenarioDowntimeClampRegression(t *testing.T) {
	cfg, sc := flashCrowdChurn()
	cfg.Coordination = TokenPermit
	cfg.RackSize = 4
	sc.Churn = Churn{MTBFS: 5, MeanDowntimeS: 1e-12, RackMTBFS: 40, RackMeanDowntimeS: 1e-12}
	cfg.Trace = TraceConfig{Level: trace.LevelDecisions}
	m, tr, err := Run(context.Background(), Spec{Config: traced(cfg), Scenario: &sc})
	if err != nil {
		t.Fatal(err)
	}
	if m.NodeFailures == 0 || m.NodeRecoveries == 0 {
		t.Fatalf("fixture should churn: %d failures, %d recoveries", m.NodeFailures, m.NodeRecoveries)
	}
	// Pair each node's failures and recoveries in record order: the trace
	// is in exact global event order, so a recovery scheduled below the
	// clamp would appear before (or at) its failure.
	lastFail := map[int]float64{}
	failOpen := map[int]bool{}
	for _, ev := range tr.Events("node-fail", "node-recover") {
		switch ev.Kind {
		case "node-fail":
			if failOpen[ev.Node] {
				t.Fatalf("node %d failed twice without recovering", ev.Node)
			}
			failOpen[ev.Node] = true
			lastFail[ev.Node] = ev.AtS
		case "node-recover":
			if !failOpen[ev.Node] {
				t.Fatalf("node %d recovered before failing (record order inverted)", ev.Node)
			}
			failOpen[ev.Node] = false
			if dt := ev.AtS - lastFail[ev.Node]; dt < 1e-3-1e-12 {
				t.Errorf("node %d downtime %g below the 1e-3 clamp", ev.Node, dt)
			}
		}
	}
}
