package fleet

import (
	"context"
	"math"
	"reflect"
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

// TestReliabilityConservation is the layer's bookkeeping contract, for
// every policy × coordination: each request lands in exactly one
// terminal state, per-node counters sum to the fleet totals, and the
// derived rates are consistent with the counts.
func TestReliabilityConservation(t *testing.T) {
	for _, p := range Policies() {
		for _, c := range append([]Coordination{NoCoordination}, Coordinations()...) {
			cfg := relConfig(p)
			cfg.QueueCap = 8             // bound queues so drops can appear
			cfg.Reliability.TimeoutS = 3 // tight enough to exhaust retries
			cfg.Coordination = c
			if c != NoCoordination {
				cfg.RackSize = 5
			}
			m := mustSimulate(t, cfg)
			if got := m.Completed + m.Dropped + m.TimedOut + m.Shed; got != m.Requests {
				t.Errorf("%s/%s: conservation violated: %d+%d+%d+%d = %d != %d requests",
					p, c, m.Completed, m.Dropped, m.TimedOut, m.Shed, got, m.Requests)
			}
			if m.TimedOut == 0 {
				t.Errorf("%s/%s: gray stragglers under overload should time requests out", p, c)
			}
			drops, timeouts, retries, gray := 0, 0, 0, 0
			for _, n := range m.Nodes {
				drops += n.Dropped
				timeouts += n.TimedOut
				retries += n.Retries
				if n.Gray {
					gray++
				}
			}
			if drops != m.Dropped {
				t.Errorf("%s/%s: per-node drops %d != fleet %d", p, c, drops, m.Dropped)
			}
			if timeouts != m.TimedOut {
				t.Errorf("%s/%s: per-node timeouts %d != fleet %d", p, c, timeouts, m.TimedOut)
			}
			if retries != m.Retries {
				t.Errorf("%s/%s: per-node retries %d != fleet %d", p, c, retries, m.Retries)
			}
			if gray != m.GrayNodes {
				t.Errorf("%s/%s: per-node gray flags %d != GrayNodes %d", p, c, gray, m.GrayNodes)
			}
			if want := int(math.Round(0.2 * 16)); m.GrayNodes != want {
				t.Errorf("%s/%s: GrayNodes = %d, want round(GrayFrac·N) = %d", p, c, m.GrayNodes, want)
			}
			wantAmp := float64(m.Requests+m.Retries) / float64(m.Requests)
			if math.Abs(m.RetryAmplification-wantAmp) > 1e-12 {
				t.Errorf("%s/%s: RetryAmplification = %g, want %g", p, c, m.RetryAmplification, wantAmp)
			}
			wantThr := float64(m.Completed+m.WastedServices+m.TransientFaults) / m.SimS
			if math.Abs(m.ThroughputRPS-wantThr) > 1e-12 {
				t.Errorf("%s/%s: ThroughputRPS = %g, want %g", p, c, m.ThroughputRPS, wantThr)
			}
			if m.GoodputRPS > m.ThroughputRPS {
				t.Errorf("%s/%s: goodput %g exceeds throughput %g", p, c, m.GoodputRPS, m.ThroughputRPS)
			}
		}
	}
}

// TestReliabilityOffUnchanged pins the zero-value contract: with the
// layer off no reliability counter moves, goodput equals throughput
// (every service is client-useful), and amplification is exactly 1.
func TestReliabilityOffUnchanged(t *testing.T) {
	for _, p := range Policies() {
		m := mustSimulate(t, highLoad(p))
		if m.TimedOut != 0 || m.Shed != 0 || m.Retries != 0 || m.TransientFaults != 0 ||
			m.WastedServices != 0 || m.GrayNodes != 0 {
			t.Errorf("%s: reliability counters moved with the layer off: %+v", p, m)
		}
		if m.GoodputRPS != m.ThroughputRPS {
			t.Errorf("%s: goodput %g != throughput %g with the layer off", p, m.GoodputRPS, m.ThroughputRPS)
		}
		if m.RetryAmplification != 1 {
			t.Errorf("%s: amplification = %g, want exactly 1", p, m.RetryAmplification)
		}
	}
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

// TestShardedReliabilityMatchesSequential extends the sharding contract
// over the reliability knobs: the layer's seeded draws (fault injection,
// backoff jitter) and timeout/retry events must replay identically at
// every worker count, for every policy and a coordinated variant.
func TestShardedReliabilityMatchesSequential(t *testing.T) {
	for _, p := range Policies() {
		for _, c := range []Coordination{NoCoordination, TokenPermit} {
			cfg := relConfig(p)
			cfg.Coordination = c
			if c != NoCoordination {
				cfg.RackSize = 5
			}
			seq := mustSimulate(t, cfg)
			for _, w := range workerCounts {
				cfg.Workers = w
				got := mustSimulate(t, cfg)
				if !reflect.DeepEqual(got, seq) {
					t.Errorf("%s/%s workers=%d reliability run diverged from sequential", p, c, w)
				}
			}
		}
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

// TestShardedReliabilityScenarioMatchesSequential: the full stack — flash
// crowd, node churn, rack churn, gray failures, timeouts, budgeted
// retries — stays byte-identical at every worker count.
func TestShardedReliabilityScenarioMatchesSequential(t *testing.T) {
	cfg, sc := relChurnScenario()
	seq := mustScenario(t, cfg, sc)
	for _, w := range workerCounts {
		cfg.Workers = w
		got := mustScenario(t, cfg, sc)
		if !reflect.DeepEqual(got, seq) {
			t.Errorf("workers=%d reliability scenario diverged from sequential", w)
		}
	}
}

// TestReliabilityScenarioConservation: under combined node churn, rack
// churn, and the full reliability layer, the per-phase breakdown must sum
// to the fleet totals for every new counter, for all four policies.
func TestReliabilityScenarioConservation(t *testing.T) {
	for _, p := range Policies() {
		cfg, sc := relChurnScenario()
		cfg.Policy = p
		m := mustScenario(t, cfg, sc)
		if got := m.Completed + m.Dropped + m.TimedOut + m.Shed; got != m.Requests {
			t.Errorf("%s: conservation violated under churn: %d != %d", p, got, m.Requests)
		}
		if m.RackFailures == 0 {
			t.Errorf("%s: rack churn should fire at least one rack failure", p)
		}
		offered, completed, dropped, timedOut, shed, retries, faults := 0, 0, 0, 0, 0, 0, 0
		for _, ph := range m.Phases {
			offered += ph.Offered
			completed += ph.Completed
			dropped += ph.Dropped
			timedOut += ph.TimedOut
			shed += ph.Shed
			retries += ph.Retries
			faults += ph.TransientFaults
			if ph.Offered > 0 && math.Abs(ph.ShedRate-float64(ph.Shed)/float64(ph.Offered)) > 1e-12 {
				t.Errorf("%s/%s: ShedRate %g inconsistent with %d/%d", p, ph.Name, ph.ShedRate, ph.Shed, ph.Offered)
			}
		}
		if offered != m.Requests || completed != m.Completed || dropped != m.Dropped {
			t.Errorf("%s: phase sums diverge from fleet totals: %d/%d/%d vs %d/%d/%d",
				p, offered, completed, dropped, m.Requests, m.Completed, m.Dropped)
		}
		if timedOut != m.TimedOut || shed != m.Shed || retries != m.Retries || faults != m.TransientFaults {
			t.Errorf("%s: per-phase reliability sums diverge: %d/%d/%d/%d vs %d/%d/%d/%d",
				p, timedOut, shed, retries, faults, m.TimedOut, m.Shed, m.Retries, m.TransientFaults)
		}
		nodeTimeouts, nodeRetries, nodeDrops := 0, 0, 0
		for _, n := range m.Nodes {
			nodeTimeouts += n.TimedOut
			nodeRetries += n.Retries
			nodeDrops += n.Dropped
		}
		if nodeTimeouts != m.TimedOut || nodeRetries != m.Retries || nodeDrops != m.Dropped {
			t.Errorf("%s: per-node sums diverge under churn: %d/%d/%d vs %d/%d/%d",
				p, nodeTimeouts, nodeRetries, nodeDrops, m.TimedOut, m.Retries, m.Dropped)
		}
	}
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
