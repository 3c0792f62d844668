// Package fleet composes the per-node sprinting ingredients — the §7
// governor budget, the thermal stack it manages, and the session burst
// model — into a datacenter-scale discrete-event simulation: N
// sprint-capable nodes, each owning its own governor and a bounded FIFO
// queue, serve an open-loop request stream under a pluggable dispatch
// policy, and the simulator reports the throughput, latency-percentile,
// sprint-denial, and per-node energy picture a capacity planner needs.
//
// The simulator is deterministic by construction: the arrival trace is a
// seeded function of the configuration, the future-event list is a min-heap
// ordered by (time, schedule sequence) so simultaneous events fire in a
// fixed order, and policy decisions read only simulation state. One
// configuration therefore maps to exactly one Metrics value, which is what
// lets the experiment drivers fan whole policy × load × size grids out on
// the concurrent engine with byte-identical results at any worker count.
//
// The implementation is built to reach warehouse scale — tens of thousands
// of nodes serving millions of requests — with near-zero steady-state
// allocation:
//
//   - dispatch queries an incrementally maintained tournament tree over
//     per-node drain keys (see index.go) in O(log N) instead of scanning
//     every node per arrival, reproducing the scan's rotating tie-break
//     exactly (the linear scan survives as the refDispatch reference used
//     by the cross-implementation determinism suite);
//   - the future-event list is a value-based 4-ary heap merged with a
//     time-sorted arrival cursor (see events.go), so scheduling an event
//     moves a 40-byte value instead of boxing a fresh heap allocation;
//   - requests live in one per-run arena indexed by int32, and queued
//     copies are 8-byte values, keeping the hot structures free of
//     GC-scanned pointers;
//   - latencies stream into a fixed-bin log-scale histogram above
//     exactQuantileCutoff requests (exact below it, or always with
//     Config.ExactQuantiles), so finish() never sorts a million-entry
//     buffer. See the "Performance model" section of docs/ARCHITECTURE.md.
//
// Each node serves like the session evaluator's governed policy: a request
// runs at full sprint width while the node's thermal budget lasts, then
// degrades to the sustained rate; a service that could not run
// start-to-finish at full width counts as a sprint denial. Hedged dispatch
// additionally duplicates laggard requests (competitive-parallel
// scheduling), paying duplicated service energy for tail latency.
//
// Above the node, rack power domains model the shared provisioned circuit:
// nodes are grouped into racks of RackSize drawing from one
// RackPowerBudgetW branch circuit backed by a battery/ultracap energy
// buffer (the §6 supply parts at rack scale), and a Coordination policy
// arbitrates sprint admission — see rack.go. Rack decisions are made at
// service-start granularity: an admitted sprint phase runs to completion
// on the buffer energy it committed, so a breaker trip throttles every
// service *starting* during the recovery window rather than preempting
// flights mid-slice. That discretization keeps the event loop exact and
// deterministic while preserving the dynamics that matter — an
// uncoordinated rack trips under load and its queues pay for the recovery
// window at 1/16th service rate, while token permits make trips impossible
// by construction.
package fleet

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"sprinting/internal/governor"
	"sprinting/internal/series"
	"sprinting/internal/session"
	"sprinting/internal/trace"
)

// exactQuantileCutoff is the trace length up to which finish() buffers
// and sorts every latency for exact nearest-rank quantiles. Above it the
// simulator streams latencies into a log-scale histogram (quantiles then
// carry a ≤ 1.81% one-bin tolerance; mean and max stay exact) unless
// Config.ExactQuantiles forces buffering. Every historical configuration
// in this repository sits below the cutoff, so pinned percentiles are
// unchanged.
const exactQuantileCutoff = 1 << 17

// Config parameterizes one fleet simulation; zero fields take the
// DefaultConfig values.
type Config struct {
	// Nodes is the number of sprint-capable nodes in the fleet.
	Nodes int
	// Policy selects the dispatch policy.
	Policy Policy
	// Requests is the open-loop trace length.
	Requests int
	// ArrivalRatePerS is the fleet-wide request arrival rate; <= 0 selects
	// ≈85% of the fleet's sustained service capacity (Nodes / MeanWorkS),
	// the high-load regime where dispatch policy matters.
	ArrivalRatePerS float64
	// MeanWorkS is the mean single-core work per request in seconds.
	MeanWorkS float64
	// Seed fixes the arrival/work trace.
	Seed int64
	// QueueCap bounds each node's outstanding requests (in service plus
	// queued); an arrival routed to a full node is dropped.
	QueueCap int
	// HedgeDelayS (Hedged policy only) is how long a request may remain
	// unfinished before a duplicate is dispatched to a second node.
	HedgeDelayS float64
	// SprintWidth is the number of sprint cores per node (16).
	SprintWidth int
	// Node configures every node's governor and thermal budget.
	Node governor.Config
	// ExactQuantiles forces exact (buffer-and-sort) latency quantiles at
	// any trace length. When false, traces up to exactQuantileCutoff
	// requests are exact anyway; larger traces stream into a log-scale
	// histogram whose quantiles are within one bin width (≤ 1.81%) and
	// whose mean/max remain exact (Metrics.ApproxQuantiles reports which
	// mode ran).
	ExactQuantiles bool
	// Workers shards a decoupled run's event loop across this many
	// concurrent per-worker loops, each owning a contiguous rack range
	// (see shard.go); any value is clamped to the number of rack groups.
	// Decoupled means round-robin dispatch without Probabilistic rack
	// admission, outside scenario mode, with no recorder, reliability
	// layer, or workload. Every other run is coupled and takes the single
	// loop whatever Workers says, so for it the field is a no-op. Results
	// are byte-identical at every worker count.
	Workers int

	// Trace configures the flight recorder (see TraceConfig in trace.go).
	// Run records exactly when Trace.Level is not off; at LevelOff the
	// rest of the field is inert and the hot path pays nothing for it.
	Trace TraceConfig

	// Coordination selects the rack sprint-arbitration policy; the zero
	// value NoCoordination disables rack power domains entirely and the
	// remaining rack fields are ignored.
	Coordination Coordination
	// RackSize groups nodes into racks of this many members sharing one
	// provisioned circuit (the last rack of an indivisible fleet is
	// smaller but keeps the full provision); 0 selects 8.
	RackSize int
	// RackPowerBudgetW is the provisioned branch-circuit power per rack;
	// 0 selects DefaultRackBudgetW (nominal for all members plus sprint
	// headroom for a quarter of them).
	RackPowerBudgetW float64
	// RackBufferJ is the rack's battery/ultracap ride-through energy; 0
	// selects DefaultRackBufferJ (one §6 ultracapacitor bank per rack).
	RackBufferJ float64
	// SprintPermits (TokenPermit only) caps concurrent sprints per rack;
	// 0 derives the largest count the provisioned budget sustains.
	SprintPermits int
	// BreakerRecoveryS is how long a tripped rack stays forced to
	// nominal before the breaker resets; 0 selects 2 s.
	BreakerRecoveryS float64

	// Reliability configures the request-reliability layer: client-side
	// timeouts and budgeted retries, plus gray-failure and transient-fault
	// injection. The zero value disables it entirely — the simulator then
	// carries no reliability state and the hot path pays a single nil
	// check (see relState).
	Reliability Reliability
}

// Reliability parameterizes the request-reliability layer. Three knobs
// arm it — TimeoutS, GrayFrac, FaultProb — and the zero value keeps it
// off; see Config.Reliability.
//
// Client-side recovery: a dispatched attempt that has not completed
// TimeoutS after enqueue expires (evTimeout, staled by the request's
// attempt counter exactly as evComplete is staled by a node's
// incarnation). An expired or faulted attempt retries up to MaxRetries
// times with seeded exponential backoff, each retry drawing one token
// from a fleet-wide token-bucket retry budget; with the bucket empty the
// request is shed (terminal). A request whose retries are exhausted is
// TimedOut (terminal). Every terminal state is counted exactly once, so
// Completed+Dropped+TimedOut+Shed == Requests always holds.
//
// Fault injection: GrayFrac marks a seeded subset of nodes as gray —
// stragglers, not corpses: their services stretch by GraySlowdownX, with
// the extra time billed at nominal power while the thermal budget
// refills (the core is stalled, not computing). FaultProb fails a
// completed service's response with that probability; the client treats
// it like a timeout and retries.
type Reliability struct {
	// TimeoutS is the per-attempt client deadline in seconds, measured
	// from the attempt's enqueue; 0 disables timeouts.
	TimeoutS float64
	// MaxRetries is how many retry attempts follow an expired or faulted
	// first attempt before the request is terminally TimedOut (0 = the
	// first attempt is the only one).
	MaxRetries int
	// RetryBackoffS is the base of the exponential retry backoff: retry k
	// waits RetryBackoffS·2^(k−1), jittered by a seeded ±50%; 0 selects
	// 0.1 s when timeouts or faults are enabled.
	RetryBackoffS float64
	// RetryBudgetPerS is the fleet-wide token-bucket retry budget in
	// retries per second; a retry wanted while the bucket is empty sheds
	// the request instead. 0 leaves retries unbudgeted.
	RetryBudgetPerS float64
	// RetryBurst is the token bucket's capacity (and initial charge);
	// 0 selects max(1, RetryBudgetPerS).
	RetryBurst float64
	// GrayFrac is the fraction of the fleet seeded as gray stragglers
	// (rounded, at least one node when positive); 0 disables gray
	// failures.
	GrayFrac float64
	// GraySlowdownX is the gray nodes' service-time multiplier (≥ 1);
	// 0 selects 4 when GrayFrac is positive.
	GraySlowdownX float64
	// FaultProb is the per-service transient-fault probability in [0, 1):
	// a faulted response is useless to the client, which retries as if the
	// attempt had timed out.
	FaultProb float64
}

// enabled reports whether any reliability trigger is armed; MaxRetries
// and the budget knobs are inert without one.
func (r Reliability) enabled() bool {
	return r.TimeoutS > 0 || r.GrayFrac > 0 || r.FaultProb > 0
}

// DefaultConfig returns a 16-node fleet of the paper's 16 W / 1 W phone
// platforms under the given policy, offered ≈85% of sustained capacity.
func DefaultConfig(p Policy) Config {
	return Config{
		Nodes:       16,
		Policy:      p,
		Requests:    2000,
		MeanWorkS:   2,
		Seed:        12345,
		QueueCap:    256,
		HedgeDelayS: 1,
		SprintWidth: 16,
		Node:        governor.DefaultConfig(),
	}
}

// withDefaults fills zero fields from DefaultConfig.
func (c Config) withDefaults() Config {
	d := DefaultConfig(c.Policy)
	if c.Nodes == 0 {
		c.Nodes = d.Nodes
	}
	if c.Requests == 0 {
		c.Requests = d.Requests
	}
	if c.MeanWorkS == 0 {
		c.MeanWorkS = d.MeanWorkS
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	if c.QueueCap == 0 {
		c.QueueCap = d.QueueCap
	}
	if c.HedgeDelayS == 0 {
		c.HedgeDelayS = d.HedgeDelayS
	}
	if c.SprintWidth == 0 {
		c.SprintWidth = d.SprintWidth
	}
	if c.Node.SprintPowerW == 0 {
		c.Node = d.Node
	}
	if c.Coordination != NoCoordination {
		if c.RackSize == 0 {
			c.RackSize = 8
		}
		if c.RackPowerBudgetW == 0 {
			c.RackPowerBudgetW = DefaultRackBudgetW(c.RackSize, c.Node)
		}
		if c.RackBufferJ == 0 {
			c.RackBufferJ = DefaultRackBufferJ()
		}
		if c.SprintPermits == 0 {
			c.SprintPermits = defaultSprintPermits(c.RackSize, c.RackPowerBudgetW, c.Node)
		}
		if c.BreakerRecoveryS == 0 {
			c.BreakerRecoveryS = 2
		}
	}
	if c.Reliability.TimeoutS > 0 || c.Reliability.FaultProb > 0 {
		if c.Reliability.RetryBackoffS == 0 {
			c.Reliability.RetryBackoffS = 0.1
		}
	}
	if c.Reliability.GrayFrac > 0 && c.Reliability.GraySlowdownX == 0 {
		c.Reliability.GraySlowdownX = 4
	}
	if c.Reliability.RetryBudgetPerS > 0 && c.Reliability.RetryBurst == 0 {
		c.Reliability.RetryBurst = math.Max(1, c.Reliability.RetryBudgetPerS)
	}
	return c
}

// EffectiveRatePerS resolves the arrival rate, applying the ≈85%-of-
// capacity default when ArrivalRatePerS is unset.
func (c Config) EffectiveRatePerS() float64 {
	if c.ArrivalRatePerS > 0 {
		return c.ArrivalRatePerS
	}
	c = c.withDefaults()
	return 0.85 * float64(c.Nodes) / c.MeanWorkS
}

// finite reports whether v is neither NaN nor ±Inf.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Validate reports configuration errors (after defaults are applied).
// Every float must be finite: NaN slips past ordered comparisons, so a
// check written as "v < 0" alone would accept it.
func (c Config) Validate() error {
	switch {
	case c.Nodes <= 0:
		return fmt.Errorf("fleet: need at least one node")
	case c.Requests <= 0:
		return fmt.Errorf("fleet: need at least one request")
	case !(c.MeanWorkS > 0) || !finite(c.MeanWorkS):
		return fmt.Errorf("fleet: mean work must be positive and finite")
	case c.QueueCap <= 0:
		return fmt.Errorf("fleet: queue capacity must be positive")
	case c.SprintWidth <= 0:
		return fmt.Errorf("fleet: sprint width must be positive")
	case math.IsNaN(c.ArrivalRatePerS) || !(c.EffectiveRatePerS() > 0) || !finite(c.EffectiveRatePerS()):
		return fmt.Errorf("fleet: arrival rate must be positive and finite")
	case !finite(c.HedgeDelayS):
		return fmt.Errorf("fleet: hedge delay must be finite")
	case c.Policy == Hedged && c.HedgeDelayS <= 0:
		return fmt.Errorf("fleet: hedged dispatch needs a positive hedge delay")
	case c.Policy == Hedged && c.Nodes < 2:
		return fmt.Errorf("fleet: hedged dispatch needs at least two nodes")
	case c.Policy < RoundRobin || c.Policy > Hedged:
		return fmt.Errorf("fleet: unknown policy %d", int(c.Policy))
	case c.Workers < 0:
		return fmt.Errorf("fleet: worker count must be non-negative")
	case c.Coordination < NoCoordination || c.Coordination > Probabilistic:
		return fmt.Errorf("fleet: unknown coordination %d", int(c.Coordination))
	case c.Trace.Level < trace.LevelOff || c.Trace.Level > trace.LevelFull:
		return fmt.Errorf("fleet: unknown trace level %d", int(c.Trace.Level))
	case c.Trace.TopK < 0:
		return fmt.Errorf("fleet: trace top-k must be non-negative")
	case !(c.Trace.WindowS >= 0) || !finite(c.Trace.WindowS):
		return fmt.Errorf("fleet: trace window must be finite and non-negative")
	}
	if c.Coordination != NoCoordination {
		switch {
		case c.RackSize <= 0:
			return fmt.Errorf("fleet: rack size must be positive")
		case !finite(c.RackPowerBudgetW):
			return fmt.Errorf("fleet: rack budget must be finite")
		case c.RackPowerBudgetW < float64(c.RackSize)*c.Node.NominalPowerW:
			return fmt.Errorf("fleet: rack budget %.1f W cannot cover %d nodes at %.1f W nominal (permanent deficit)",
				c.RackPowerBudgetW, c.RackSize, c.Node.NominalPowerW)
		case !(c.RackBufferJ >= 0) || !finite(c.RackBufferJ):
			return fmt.Errorf("fleet: rack buffer energy must be finite and non-negative")
		case c.SprintPermits < 0:
			return fmt.Errorf("fleet: sprint permits must be non-negative")
		case !(c.BreakerRecoveryS > 0) || !finite(c.BreakerRecoveryS):
			return fmt.Errorf("fleet: breaker recovery window must be positive and finite")
		}
	}
	rl := c.Reliability
	switch {
	case !(rl.TimeoutS >= 0) || !finite(rl.TimeoutS):
		return fmt.Errorf("fleet: request timeout must be finite and non-negative")
	case rl.MaxRetries < 0 || rl.MaxRetries > 100:
		// request.attempt is a uint8 arena field; 100 is far past any
		// sane retry policy anyway.
		return fmt.Errorf("fleet: max retries must be in [0, 100]")
	case !(rl.RetryBackoffS >= 0) || !finite(rl.RetryBackoffS):
		return fmt.Errorf("fleet: retry backoff must be finite and non-negative")
	case !(rl.RetryBudgetPerS >= 0) || !finite(rl.RetryBudgetPerS):
		return fmt.Errorf("fleet: retry budget must be finite and non-negative")
	case !(rl.RetryBurst >= 0) || !finite(rl.RetryBurst):
		return fmt.Errorf("fleet: retry burst must be finite and non-negative")
	case !(rl.GrayFrac >= 0 && rl.GrayFrac <= 1):
		return fmt.Errorf("fleet: gray fraction must be in [0, 1]")
	case rl.GrayFrac > 0 && (!(rl.GraySlowdownX >= 1) || !finite(rl.GraySlowdownX)):
		return fmt.Errorf("fleet: gray slowdown must be finite and at least 1")
	case !(rl.FaultProb >= 0 && rl.FaultProb < 1):
		return fmt.Errorf("fleet: fault probability must be in [0, 1)")
	}
	return c.Node.Validate()
}

// NodeStats summarizes one node's activity over the simulation.
type NodeStats struct {
	// ID is the node index.
	ID int
	// Served counts service executions, including hedge copies.
	Served int
	// Denials counts services that did not run start-to-finish at full
	// sprint width — whether the node's governor ran out of thermal
	// budget or the rack refused sprint admission (rack refusals are also
	// broken out separately in Metrics.PermitDenials).
	Denials int
	// Dropped counts arrivals bounced off this node's full queue. A
	// fleet-wide drop (no node has queue space) is attributed to the node
	// the policy would have routed to, so per-node drops always sum to
	// Metrics.Dropped.
	Dropped int
	// Failures counts scenario churn failures of this node (0 outside
	// scenario mode).
	Failures int
	// TimedOut counts requests that exhausted their retries while this
	// node held their last attempt; per-node timeouts always sum to
	// Metrics.TimedOut. Retries counts retry attempts enqueued onto this
	// node. Gray marks the node a seeded gray straggler. (Reliability
	// layer only; see Config.Reliability.)
	TimedOut int
	Retries  int
	Gray     bool
	// Rack is the node's rack index (0 when coordination is disabled).
	Rack int
	// EnergyJ is the service energy the node drew (sprint slices at sprint
	// power, degraded slices at nominal power).
	EnergyJ float64
	// BusyS is the total time the node spent serving.
	BusyS float64
}

// Metrics is the outcome of one fleet simulation. Every field is a
// deterministic function of the Config.
type Metrics struct {
	Policy Policy

	// Requests / Completed / Dropped count the offered trace and its fate.
	// With the reliability layer armed two further terminal states exist —
	// TimedOut (retries exhausted) and Shed (retry wanted but the fleet-
	// wide budget was empty) — and every request lands in exactly one:
	// Completed + Dropped + TimedOut + Shed == Requests always.
	Requests  int
	Completed int
	Dropped   int
	TimedOut  int
	Shed      int
	// AdmissionShed breaks out the Shed requests refused at the door by a
	// workload SLO class's admission bucket (as opposed to shed mid-retry
	// by the fleet-wide retry budget); always ≤ Shed, zero without a
	// workload.
	AdmissionShed int

	// Reliability-layer work accounting (zero when Config.Reliability is
	// off): Retries counts retry attempts dispatched; TransientFaults the
	// injected per-service response faults; WastedServices the services
	// that completed for an attempt the client had already abandoned
	// (their energy and node time are real, their response is useless).
	Retries         int
	TransientFaults int
	WastedServices  int

	// HedgesIssued counts duplicated dispatches, HedgeWins the requests
	// whose hedge copy replied first, and CancelledCopies queued copies
	// skipped because the other copy already finished (Hedged policy only).
	HedgesIssued    int
	HedgeWins       int
	CancelledCopies int
	// HedgesSuppressed counts hedge checks that wanted to duplicate a
	// still-unfinished request but found no node with queue space — the
	// original copy stands alone. Under overload this is the dominant
	// hedge outcome, and silently losing it understated how often the
	// policy was starved of spare capacity.
	HedgesSuppressed int

	// SimS is the instant the last service completed. ThroughputRPS is
	// the rate of service completions that delivered a response —
	// useful or not: (Completed + WastedServices + TransientFaults) /
	// SimS, which reduces to Completed / SimS whenever the reliability
	// layer is off. GoodputRPS is the rate of client-useful completions,
	// Completed / SimS; the gap between the two is the work a retry storm
	// burns. RetryAmplification is dispatch attempts per offered request,
	// (Requests + Retries) / Requests.
	SimS               float64
	ThroughputRPS      float64
	GoodputRPS         float64
	RetryAmplification float64
	// GrayNodes is how many nodes the reliability layer seeded as gray
	// stragglers (0 when off).
	GrayNodes int

	// Latency percentiles over completed requests (completion − arrival).
	// Mean and max are always exact; with ApproxQuantiles set the
	// percentiles come from the streaming histogram and carry its one-bin
	// (≤ 1.81%) tolerance.
	MeanS float64
	P50S  float64
	P95S  float64
	P99S  float64
	P999S float64
	MaxS  float64
	// ApproxQuantiles reports that latencies streamed through the
	// log-scale histogram instead of the exact buffer (traces above
	// exactQuantileCutoff without Config.ExactQuantiles).
	ApproxQuantiles bool

	// SprintDenialRate is the fraction of services that could not run
	// start-to-finish at full sprint width, for any reason: thermal
	// budget exhaustion, or (with rack coordination enabled) a rack
	// permit denial. Compare against PermitDenialRate to separate the
	// electrical from the thermal cause.
	SprintDenialRate float64

	// Per-node energy summary and the full per-node breakdown.
	TotalEnergyJ      float64
	MeanNodeEnergyJ   float64
	MaxNodeEnergyJ    float64
	EnergyPerRequestJ float64
	Nodes             []NodeStats

	// Rack power-domain outcome (Coordination != NoCoordination only;
	// otherwise Racks is nil and the counters stay zero).
	Coordination Coordination
	// BreakerTrips counts branch-breaker trips across racks;
	// RackThrottledS the total rack-seconds spent in post-trip recovery
	// with every member forced to nominal.
	BreakerTrips   int
	RackThrottledS float64
	// PermitRequests counts services that asked their rack to sprint;
	// PermitDenials those refused; PermitDenialRate their ratio.
	PermitRequests   int
	PermitDenials    int
	PermitDenialRate float64
	// Racks is the per-rack breakdown.
	Racks []RackStats

	// Scenario outcome (SimulateScenario only; otherwise zero/nil).
	// NodeFailures and NodeRecoveries count churn events; Redispatches
	// counts request copies failed over from a dead node to a live one
	// (an orphaned copy that finds no queue space anywhere is a Dropped).
	NodeFailures   int
	NodeRecoveries int
	Redispatches   int
	// RackFailures counts correlated rack power-loss events (each one
	// fails every live member of a rack at once; the member failures are
	// also in NodeFailures).
	RackFailures int
	// Phases is the per-phase breakdown, one entry per Scenario phase in
	// declaration order.
	Phases []PhaseMetrics

	// Multi-tenant workload outcome (workload and labeled-replay runs
	// only; otherwise nil/zero). Classes is the per-SLO-class breakdown in
	// declaration order, Tenants the per-population breakdown, and
	// JainFairness the Jain index over per-tenant completions (1 = every
	// tenant completed equally, → 1/n under monopoly, 0 when nothing
	// completed).
	Classes      []ClassMetrics
	Tenants      []TenantMetrics
	JainFairness float64
}

// request is one open-loop arrival; doneS < 0 until its first completion.
// Requests live in the sim's per-run arena and are referred to by index,
// so the event loop never allocates or GC-scans them.
type request struct {
	arrivalS  float64
	workS     float64
	doneS     float64
	firstNode int32
	// phase is the scenario phase the request arrived in (0 outside
	// scenario mode); copies counts live dispatched copies so failure
	// handling can tell an orphaned request (fail over) from one that
	// still has a copy in flight elsewhere (hedging).
	phase   int16
	copies  int16
	dropped bool
	// attempt is the request's client-side attempt counter (reliability
	// layer only): bumped on every timeout or fault, it stales the
	// expired attempt's in-flight copies and pending timeout exactly as a
	// node's incarnation stales its scheduled events. timedOut and shed
	// mark the two reliability-terminal states.
	attempt  uint8
	timedOut bool
	shed     bool
	// Workload labels (zero outside workload/replay runs): slo and tenant
	// index the workloadRun's class and tenant tables, and width > 0 caps
	// the request's service parallelism below the node's class width.
	slo    int16
	tenant int16
	width  uint16
}

// reqCopy is one dispatched copy of a request (hedging can make two): an
// 8-byte pointer-free value — req indexes sim.reqs. attempt is the
// client attempt the copy was dispatched for; a completion whose attempt
// no longer matches the request's is stale (the client already moved on).
type reqCopy struct {
	req     int32
	hedge   bool
	attempt uint8
}

// node is one sprint-capable server: a governor-managed budget plus a
// bounded single-server FIFO queue. Nodes live in one flat arena.
type node struct {
	id     int
	rackID int
	class  int32
	gov    governor.Governor

	queue []reqCopy
	head  int
	// queuedNaiveS is the queued work at full sprint width, maintained
	// incrementally so routing keys stay O(1) per node.
	queuedNaiveS float64

	busy       bool
	cur        reqCopy
	busyUntilS float64

	// alive is false while scenario churn has the node failed; gen is the
	// node's incarnation, bumped on failure so completion and sprint-end
	// events scheduled against a dead incarnation are recognized as stale.
	// sprintXW is the extra rack power the node's active sprint phase
	// draws (0 when none), recorded so a failure can retire the phase
	// from its rack immediately instead of waiting for a stale event.
	alive    bool
	gen      uint64
	sprintXW float64

	stats NodeStats
}

// outstanding counts in-service plus queued copies.
//
//sprint:hotpath
func (n *node) outstanding() int {
	c := len(n.queue) - n.head
	if n.busy {
		c++
	}
	return c
}

// refDispatch, when set, routes every policy selection through the O(N)
// linear-scan reference selector instead of the dispatch index. It exists
// for the cross-implementation determinism suite (index_test.go), which
// proves the indexed and scanned selections produce identical Metrics;
// it is unexported so release binaries cannot reach it.
var refDispatch bool

// nodeClass is one hardware class of the fleet: the per-node constants
// dispatch scoring and the service discipline read. A plain simulation has
// exactly one class derived from Config; scenarios may declare several
// (see NodeClass), and ambient-temperature phases re-derive the
// environment-dependent fields (capJ, drainW, netW, proto) in place.
type nodeClass struct {
	name     string
	width    float64
	sprintW  float64
	nominalW float64
	extraW   float64
	queueCap int

	// gcfg is the class's governor configuration at design ambient; proto
	// is the governor prototype nodes of this class are (re)born with,
	// after the budget/drain scale factors are applied.
	gcfg        governor.Config
	budgetScale float64
	drainScale  float64
	proto       governor.Governor

	// Environment-dependent projection constants (shared by every node of
	// the class, so sprint-aware scoring reads floats instead of
	// re-deriving them); drainW is also the budget refill rate.
	capJ   float64
	drainW float64
	netW   float64
}

// sim is the running simulation state.
type sim struct {
	cfg  Config
	rate float64
	// classes holds the per-class constants; class 0 is the whole fleet
	// outside scenario mode, so the homogeneous fast paths read
	// s.classes[0] directly.
	classes []nodeClass
	// scen is non-nil when running a Scenario (phases, churn, per-phase
	// accounting); see scenario.go.
	scen *scenarioRun
	// lastFailed is the most recently failed node, the drop-attribution
	// fallback for arrivals that find no live node at all.
	lastFailed int32

	nodes []node
	// racks is empty when rack coordination is disabled; rackRng is the
	// dedicated deterministic stream behind Probabilistic admission.
	racks   []rack
	rackRng *rand.Rand

	// reqs is the per-run request arena: the whole open-loop trace,
	// time-sorted; the main loop merges an arrival cursor over it with
	// the future-event heap.
	reqs []request

	events eventQueue
	seq    uint64
	rr     int
	nowS   float64
	// lastDoneS is the last service completion; it defines SimS so that
	// trailing no-op hedge-check events cannot inflate the simulated span
	// (and deflate throughput) under the Hedged policy.
	lastDoneS float64

	// segs are the dispatch-index segments: one tournament tree group per
	// node-class block, merged at query time so any segmentation
	// reproduces the single-tree selection exactly — see shard.go. segIdx
	// maps a node to its segment. Both are nil under RoundRobin, which
	// never reads node state, and in refDispatch mode.
	segs   []dspSeg
	segIdx []int32
	useRef bool

	// cuts are the decoupled engine's shard boundaries over node indexes
	// ([0 c1 … N], rack-aligned); nil when the run takes the single loop.
	// runParallel builds per-worker sims over the cut ranges (see
	// shard.go).
	cuts []int

	// latencies buffers completions for exact quantiles; hist streams
	// them instead above exactQuantileCutoff (see finish).
	latencies []float64
	hist      *series.Histogram
	m         Metrics

	// rec is the flight recorder, nil unless Config.Trace.Level is on;
	// every hook in the engine is a nil check on it and the recorder only
	// ever reads simulation state (see trace.go). A non-nil recorder makes
	// the run coupled (parallelOK), so the record stream follows the
	// single loop's global event order.
	rec *recorder

	// rel is the reliability layer's live state (see reliability.go), nil
	// unless Config.Reliability arms a trigger — the same zero-cost-when-
	// off contract as rec: every hook is a nil check, and a non-nil rel
	// makes the run coupled so its seeded draws follow the single loop's
	// global event order at any worker count.
	rel *relState

	// wl is the multi-tenant workload state (see workload.go), nil unless
	// a workload or labeled replay armed it — the same zero-cost-when-off
	// contract as rec and rel: every hook is a nil check, and a non-nil wl
	// makes the run coupled because admission buckets and dequeue
	// disciplines are fleet-global state consumed in event order.
	wl *workloadRun
}

// baseClass derives the single homogeneous node class of a plain (non-
// scenario) simulation from the configuration.
func baseClass(cfg Config) nodeClass {
	proto := governor.New(cfg.Node)
	// While not sprinting the package sheds heat at the sustained
	// budget; the sprint-aware estimator projects refill at this rate.
	drain := cfg.Node.Design.SustainedPowerBudgetW()
	return nodeClass{
		name:        "default",
		width:       float64(cfg.SprintWidth),
		sprintW:     cfg.Node.SprintPowerW,
		nominalW:    cfg.Node.NominalPowerW,
		extraW:      cfg.Node.SprintPowerW - cfg.Node.NominalPowerW,
		queueCap:    cfg.QueueCap,
		gcfg:        cfg.Node,
		budgetScale: 1,
		drainScale:  1,
		proto:       *proto,
		capJ:        proto.CapacityJ(),
		drainW:      drain,
		netW:        cfg.Node.SprintPowerW - drain,
	}
}

// cl returns the node's class constants.
func (s *sim) cl(n *node) *nodeClass { return &s.classes[n.class] }

// newSim assembles the simulation state for a resolved arrival source
// (see Spec.resolve); a non-nil rec attaches the flight recorder. The
// scenario, workload, and recorder state must all exist before
// initShards runs, which reads them through parallelOK.
func newSim(src source, rec *recorder) *sim {
	cfg, scen := src.cfg, src.scen
	s := &sim{
		cfg:        cfg,
		rate:       cfg.EffectiveRatePerS(),
		lastFailed: -1,
		useRef:     refDispatch,
		scen:       scen,
		rec:        rec,
		wl:         src.wl,
		reqs:       src.reqs,
	}
	s.m.Policy = cfg.Policy
	s.m.Requests = cfg.Requests
	s.m.Coordination = cfg.Coordination
	if scen != nil {
		s.classes = scen.classes
	} else {
		s.classes = []nodeClass{baseClass(cfg)}
	}
	s.nodes = make([]node, cfg.Nodes)
	for i := range s.nodes {
		c := int32(0)
		if scen != nil {
			c = scen.classIdx[i]
		}
		s.nodes[i] = node{id: i, class: c, gov: s.classes[c].proto, alive: true}
	}
	if cfg.Reliability.enabled() {
		// Must exist before initShards: parallelOK reads it, because the
		// reliability layer's seeded draws (fault injection, backoff
		// jitter) only replay identically when every engine applies events
		// in the exact global order.
		s.rel = newRelState(cfg, len(s.nodes))
		for i := range s.nodes {
			if s.rel.slowX != nil && s.rel.slowX[i] > 1 {
				s.nodes[i].stats.Gray = true
				s.m.GrayNodes++
			}
		}
	}
	if cfg.ExactQuantiles || cfg.Requests <= exactQuantileCutoff {
		s.latencies = make([]float64, 0, cfg.Requests)
	} else {
		s.hist = series.NewHistogram()
	}
	if cfg.Coordination != NoCoordination {
		nRacks := (cfg.Nodes + cfg.RackSize - 1) / cfg.RackSize
		s.racks = make([]rack, nRacks)
		for i := range s.racks {
			s.racks[i] = rack{
				id:         i,
				budgetW:    cfg.RackPowerBudgetW,
				extraW:     cfg.Node.SprintPowerW - cfg.Node.NominalPowerW,
				nominalW:   cfg.Node.NominalPowerW,
				bufferJ:    cfg.RackBufferJ,
				bufferCapJ: cfg.RackBufferJ,
				dynamic:    scen != nil,
			}
		}
		for i := range s.nodes {
			s.nodes[i].rackID = i / cfg.RackSize
			r := &s.racks[s.nodes[i].rackID]
			r.size++
			r.nominalLiveW += s.cl(&s.nodes[i]).nominalW
		}
		// A dedicated stream keeps Probabilistic admission independent of
		// the arrival trace; every engine applies events in the exact
		// global order, so draws replay identically at any worker count.
		s.rackRng = rand.New(rand.NewSource(cfg.Seed ^ 0x5deece66d))
	}
	// Dispatch-index segments, one per class block (sprint-aware idle keys
	// are only comparable within one class), and the decoupled engine's
	// shard layout; see shard.go.
	s.initShards()
	if rec != nil {
		rec.begin(s)
		if s.rel != nil && s.rel.slowX != nil {
			// The gray set is fixed at birth, so it heads the record
			// stream: one event per straggler, DurS carrying the slowdown.
			for i := range s.nodes {
				if s.rel.slowX[i] > 1 {
					rec.event(s, trace.Event{Kind: "gray-node", Node: i, Rack: rackOf(s, &s.nodes[i]), Req: -1, Phase: -1, DurS: s.rel.slowX[i]})
				}
			}
		}
	}
	if scen != nil {
		s.scheduleScenario()
	}
	return s
}

// Spec is one fleet run: the Config plus the source its arrivals come
// from. The zero source is the synthetic open-loop trace, Config.Requests
// arrivals from the session burst generator at the configured rate.
// Scenario and Replay select the other timelines and exclude each other;
// Workload swaps a timeline's single population for declared tenants.
// Recording is on when Config.Trace.Level is not off.
type Spec struct {
	Config Config
	// Scenario plays the run through its phases, ambient shifts, node
	// classes, and churn. It supersedes Config.Requests and
	// ArrivalRatePerS, and Config.Nodes when classes are declared.
	Scenario *Scenario
	// Workload draws the arrivals from its tenant populations: over the
	// Scenario's timeline when one is set, else over a flat timeline of
	// Workload.DurationS seconds. With Replay it may declare classes only,
	// the SLO classes the trace labels resolve against.
	Workload *WorkloadSpec
	// Replay, when non-nil, drives the arrival arena verbatim from
	// recorded rows (see ValidateRequestTrace). It supersedes
	// Config.Requests and ArrivalRatePerS.
	Replay []TraceRequest
}

// source is a Spec resolved for newSim: the defaulted, validated Config
// (Requests is the arena length), the filled request arena, and the
// scenario and workload state the source arms.
type source struct {
	cfg  Config
	reqs []request
	scen *scenarioRun
	wl   *workloadRun
}

// Run simulates the Spec and returns its metrics, plus the flight
// recording when Config.Trace.Level is on (nil otherwise). The run is
// deterministic: the same Spec always yields the same Metrics and the
// same recording bytes, at any Config.Workers value. The context is
// checked periodically so very large traces can be cancelled.
func Run(ctx context.Context, spec Spec) (Metrics, *trace.Trace, error) {
	src, err := spec.resolve()
	var (
		m   Metrics
		rec *recorder
	)
	if err == nil {
		if src.cfg.Trace.Level != trace.LevelOff {
			rec = newRecorder(src.cfg)
		}
		m, err = newSim(src, rec).start(ctx)
	}
	// The arena is pooled whatever happened; Metrics never reference it.
	putArena(src.reqs)
	if err != nil {
		return Metrics{}, nil, err
	}
	if rec == nil {
		return m, nil, nil
	}
	return m, rec.tr, nil
}

// resolve turns the Spec's arrival source into a filled arena. On error
// the returned reqs may still hold a pooled arena for Run to return.
func (spec Spec) resolve() (source, error) {
	switch {
	case spec.Replay != nil:
		if spec.Scenario != nil {
			return source{}, fmt.Errorf("fleet: a replay takes its timeline from the trace; it cannot also play a scenario")
		}
		return replaySource(spec.Config, spec.Replay, spec.Workload)
	case spec.Scenario != nil:
		return scenarioSource(spec.Config, *spec.Scenario, spec.Workload)
	case spec.Workload != nil:
		w := spec.Workload
		if !(w.DurationS > 0) {
			return source{}, fmt.Errorf("fleet: workload needs a positive duration")
		}
		sc := Scenario{Phases: []Phase{{Name: "workload", DurationS: w.DurationS}}, MaxRequests: w.MaxRequests}
		return scenarioSource(spec.Config, sc, w)
	}
	cfg := spec.Config.withDefaults()
	if err := cfg.Validate(); err != nil {
		return source{}, err
	}
	// Open-loop arrival trace: the session burst generator at the fleet's
	// aggregate rate (mean gap = 1/rate). The trace is time-sorted with
	// strictly increasing arrivals, so it is consumed through a cursor
	// rather than heaped; on an exact tie with a scheduled event the
	// arrival fires first, matching the historical seq ordering in which
	// every arrival was pushed before any dynamic event.
	bursts := session.GenerateBursts(cfg.Requests, 1/cfg.EffectiveRatePerS(), cfg.MeanWorkS, cfg.Seed)
	reqs := getArena(len(bursts))
	for i, b := range bursts {
		reqs[i] = request{arrivalS: b.ArrivalS, workS: b.WorkS, doneS: -1, firstNode: -1}
	}
	return source{cfg: cfg, reqs: reqs}, nil
}

// run drives the merged arrival-cursor / event-heap loop to completion
// and assembles the metrics — the classic single-loop engine every
// coupled run takes; start() picks it or the decoupled engine in
// shard.go.
func (s *sim) run(ctx context.Context) (Metrics, error) {
	arrival := 0
	for steps := 0; ; steps++ {
		if steps&1023 == 1023 {
			if err := ctx.Err(); err != nil {
				return Metrics{}, err
			}
		}
		if arrival < len(s.reqs) &&
			(s.events.len() == 0 || s.reqs[arrival].arrivalS <= s.events.top().atS) {
			s.nowS = s.reqs[arrival].arrivalS
			if s.rec != nil {
				s.rec.tick(s)
			}
			s.dispatch(int32(arrival))
			arrival++
			continue
		}
		if s.events.len() == 0 {
			break
		}
		ev := s.events.pop()
		s.nowS = ev.atS
		if s.rec != nil {
			s.rec.tick(s)
		}
		s.handle(ev)
	}
	return s.finish(), nil
}

// handle applies one scheduled event; the caller has already set nowS to
// the event's firing time. It is shared by both engines — the single
// loop and the per-worker parallel loops — so the handlers themselves
// cannot tell which one is driving.
//
//sprint:hotpath
func (s *sim) handle(ev event) {
	switch ev.kind {
	case evHedge:
		s.hedge(ev.req)
	case evComplete:
		// A gen mismatch marks a completion scheduled against an
		// incarnation that has since failed; the copy was already
		// destroyed (and failed over) by nodeFail.
		if n := &s.nodes[ev.node]; n.gen == ev.gen {
			s.complete(n)
		}
	case evSprintEnd:
		s.sprintEnd(ev)
	case evBreakerTrip:
		s.breakerTrip(ev)
	case evBreakerReset:
		s.breakerReset(ev)
	case evPhase:
		s.phaseStart(int(ev.req))
	case evNodeFail:
		s.nodeFail()
	case evNodeRecover:
		s.nodeRecover(&s.nodes[ev.node])
	case evRackFail:
		s.rackFail()
	case evTimeout:
		s.timeout(ev.req, uint8(ev.gen))
	case evRetry:
		s.retry(ev.req, uint8(ev.gen))
	}
}

// drop records a request bounced for lack of capacity, attributing it to
// the node it would have joined (nil only when no live node exists, in
// which case the most recently failed node carries the attribution so
// per-node drops always sum to the fleet total).
//
//sprint:hotpath
func (s *sim) drop(ri int32, n *node) {
	r := &s.reqs[ri]
	r.dropped = true
	s.m.Dropped++
	if s.rec != nil && r.firstNode >= 0 {
		// A redispatch-drop abandons a request that was in flight; a fresh
		// arrival bounced before its first enqueue never counted.
		s.rec.reqAbandoned()
	}
	if n == nil && s.lastFailed >= 0 {
		n = &s.nodes[s.lastFailed]
	}
	if n != nil {
		n.stats.Dropped++
	}
	if s.scen != nil {
		s.scen.acc[r.phase].dropped++
	}
}

// dispatch routes a fresh arrival to the policy-chosen node.
//
//sprint:hotpath
func (s *sim) dispatch(ri int32) {
	r := &s.reqs[ri]
	if s.wl != nil && !s.wl.admit(r.slo, s.nowS) {
		// Admission control sheds at the door, before the policy looks at
		// the fleet: the class's token bucket is empty. Terminal — the
		// client gets an immediate refusal, not a retry.
		r.shed = true
		s.m.Shed++
		s.m.AdmissionShed++
		s.wl.acc[r.slo].admShed++
		if s.scen != nil {
			s.scen.acc[r.phase].shed++
		}
		return
	}
	rr0 := s.rr
	n := s.selectNode(r.workS, -1)
	if n == nil || n.outstanding() >= s.cl(n).queueCap {
		if s.rec != nil {
			s.rec.decision(s, ri, "dispatch", n, rr0, -1, false)
		}
		s.drop(ri, n)
		return
	}
	if s.rec != nil {
		// Recorded before enqueue so the winning key and the alternatives
		// scan see the exact pre-placement state the selector scored.
		s.rec.decision(s, ri, "dispatch", n, rr0, -1, true)
	}
	r.firstNode = int32(n.id)
	s.enqueue(n, reqCopy{req: ri})
	if s.cfg.Policy == Hedged {
		d := s.cfg.HedgeDelayS
		if s.wl != nil {
			if h := s.wl.classes[r.slo].hedgeS; h > 0 {
				d = h // per-SLO-class hedge override
			}
		}
		s.push(event{atS: s.nowS + d, kind: evHedge, req: ri})
	}
	if s.rel != nil && s.rel.timeoutS > 0 {
		s.push(event{atS: s.nowS + s.rel.timeoutS, kind: evTimeout, req: ri, gen: uint64(r.attempt)})
	}
}

// hedge duplicates a still-unfinished request to a second node. A hedge
// that finds no spare capacity anywhere is suppressed — the original copy
// stands alone — and counted in Metrics.HedgesSuppressed.
//
//sprint:hotpath
func (s *sim) hedge(ri int32) {
	r := &s.reqs[ri]
	if r.doneS >= 0 || r.dropped {
		return
	}
	if s.rel != nil && (r.timedOut || r.shed || r.copies == 0) {
		// Reliability-terminal, or between attempts (the expired copy is
		// stale and the retry has not dispatched yet): nothing to duplicate.
		return
	}
	rr0 := s.rr
	n := s.selectNode(r.workS, int(r.firstNode))
	if n == nil || n.outstanding() >= s.cl(n).queueCap {
		if s.rec != nil {
			s.rec.event(s, trace.Event{Kind: "hedge-suppress", Node: -1, Rack: -1, Req: int(ri), Phase: int(r.phase)})
		}
		s.m.HedgesSuppressed++
		return
	}
	if s.rec != nil {
		s.rec.decision(s, ri, "hedge", n, rr0, int(r.firstNode), true)
	}
	s.m.HedgesIssued++
	s.enqueue(n, reqCopy{req: ri, hedge: true, attempt: r.attempt})
}

// redispatch fails a request copy over to a fresh node after its original
// node died: the standard policy selection, with a drop (attributed to the
// would-be node) when nothing has queue space.
//
//sprint:hotpath
func (s *sim) redispatch(ri int32) {
	r := &s.reqs[ri]
	rr0 := s.rr
	n := s.selectNode(r.workS, -1)
	if n == nil || n.outstanding() >= s.cl(n).queueCap {
		if s.rec != nil {
			s.rec.decision(s, ri, "redispatch", n, rr0, -1, false)
		}
		s.drop(ri, n)
		return
	}
	if s.rec != nil {
		s.rec.decision(s, ri, "redispatch", n, rr0, -1, true)
	}
	s.m.Redispatches++
	if s.scen != nil {
		s.scen.acc[r.phase].redispatches++
	}
	// The failover target is the request's first node now: a pending
	// hedge check must exclude it, not the dead original. The copy keeps
	// its attempt — the client's deadline keeps ticking across a failover.
	r.firstNode = int32(n.id)
	s.enqueue(n, reqCopy{req: ri, attempt: r.attempt})
}

// enqueue places a copy on the node, starting service if it is idle, and
// refreshes the node's routing key.
//
//sprint:hotpath
func (s *sim) enqueue(n *node, c reqCopy) {
	s.reqs[c.req].copies++
	if !n.busy {
		s.startService(n, c)
	} else {
		n.queue = append(n.queue, c)
		n.queuedNaiveS += s.reqs[c.req].workS / s.cl(n).width
	}
	s.touch(n)
}

// touch refreshes the node's routing keys after any state change
// (enqueue, service start, completion) — the only instants a key can
// move, so the index never decays merely because time passed.
//
// For least-loaded/hedged the canonical key is the absolute backlog-
// drain instant — busyUntilS + queuedNaiveS — or −Inf for an idle node,
// so every idle node shares one exact key and the rotating tie-break
// spreads arrivals across them just as the linear scan did. Sprint-aware
// keeps busy nodes under the same drain key and idle nodes under the
// governor budget instant tKey; a node at queue capacity leaves the
// trees entirely (it is only ever the drop-attribution fallback).
//
//sprint:hotpath
func (s *sim) touch(n *node) {
	if s.segs == nil {
		return
	}
	sg := &s.segs[s.segIdx[n.id]]
	lid := n.id - sg.lo
	if sg.idx != nil {
		sg.idx.update(lid, !n.alive || n.outstanding() >= s.cl(n).queueCap, n.drainKey())
		return
	}
	switch {
	case !n.alive || n.outstanding() >= s.cl(n).queueCap:
		sg.busyIdx.update(lid, true, math.Inf(1))
		sg.idleIdx.update(lid, true, math.Inf(1))
	case n.busy:
		sg.busyIdx.update(lid, false, n.busyUntilS+n.queuedNaiveS)
		sg.idleIdx.update(lid, true, math.Inf(1))
	default:
		sg.busyIdx.update(lid, true, math.Inf(1))
		sg.idleIdx.update(lid, false, s.tKey(n))
	}
}

// tKey is an idle node's routing key: the instant the governor's refill
// line extrapolates back to an empty budget, so the projected budget at
// any later query time is min(capacity, drainW·(now − tKey)) — a
// decreasing function of the key alone. Ascending tKey therefore orders
// idle nodes by sprint-aware score for every request size, and two nodes
// with equal keys have bit-identical projections (the all-idle initial
// fleet shares one key, preserving the rotating tie-break). With a
// non-refilling platform (drainW ≤ 0) the budget is static and −remJ
// gives the same ordering.
//
//sprint:hotpath
func (s *sim) tKey(n *node) float64 {
	cl := s.cl(n)
	remJ := n.gov.RemainingJ()
	if cl.drainW <= 0 {
		return -remJ
	}
	return n.gov.Now() - remJ/cl.drainW
}

// startService begins serving a copy now: the governor idles over the gap
// since its last activity, the node's rack (if any) rules on sprint
// admission, then the governed slicing determines service time and energy.
// A rack-denied service runs entirely on the sustained core.
//
//sprint:hotpath
func (s *sim) startService(n *node, c reqCopy) {
	workS := s.reqs[c.req].workS
	if gap := s.nowS - n.gov.Now(); gap > 0 {
		n.gov.Idle(gap)
	}
	cl := s.cl(n)
	width, sprintW := cl.width, cl.sprintW
	if s.wl != nil {
		if rw := float64(s.reqs[c.req].width); rw > 0 && rw < width {
			// A narrow request caps its own parallelism: it serves at its
			// width and draws sprint power scaled to the cores it lights up.
			// Wider-than-class requests clamp to the class width, and the
			// whole override rides behind the wl nil check so default runs
			// pass the class constants through verbatim.
			width = rw
			sprintW = cl.nominalW + cl.extraW*(rw/cl.width)
		}
	}
	var serviceS, energyJ, sprintS float64
	var full bool
	if s.sprintAdmitted(n, workS) {
		serviceS, energyJ, sprintS, full = s.serve(n, workS, width, sprintW)
	} else {
		serviceS = workS
		energyJ = s.cl(n).nominalW * serviceS
		n.gov.Idle(serviceS) // at nominal the thermal budget refills
	}
	if s.rel != nil && s.rel.slowX != nil {
		if x := s.rel.slowX[n.id]; x > 1 {
			// Gray failure: the service stretches — a straggler, not a
			// corpse. The stall is billed at nominal power (the core waits,
			// it does not compute) and the thermal budget refills over it;
			// the sprint phase itself keeps its real duration, so rack draw
			// timing is untouched. busyUntilS reflects the stretch, so
			// queue-aware policies can see the backlog — blind ones cannot,
			// which is exactly what makes the failure gray.
			extraS := serviceS * (x - 1)
			serviceS += extraS
			energyJ += s.cl(n).nominalW * extraS
			n.gov.Idle(extraS)
		}
	}
	if sprintS > 0 {
		s.rackSprintStart(n, sprintS)
	}
	if s.rec != nil {
		if sprintS > 0 {
			s.rec.sprintStart(s, n, sprintS)
		}
		if s.rec.cfg.Level == trace.LevelFull {
			s.rec.event(s, trace.Event{Kind: "service-start", Node: n.id, Rack: rackOf(s, n), Req: int(c.req), Phase: int(s.reqs[c.req].phase), DurS: serviceS})
		}
	}
	n.busy, n.cur = true, c
	n.busyUntilS = s.nowS + serviceS
	n.stats.Served++
	if !full {
		n.stats.Denials++
	}
	if s.scen != nil {
		a := &s.scen.acc[s.reqs[c.req].phase]
		a.served++
		if !full {
			a.denials++
		}
	}
	n.stats.EnergyJ += energyJ
	n.stats.BusyS += serviceS
	s.push(event{atS: n.busyUntilS, kind: evComplete, node: int32(n.id), gen: n.gen})
}

// serve runs the governed service discipline (the session evaluator's
// policy at fleet scale): full sprint width while the budget lasts, then
// the sustained rate. It reports service time, service energy, the sprint
// phase's duration (always a contiguous prefix of the service — the
// thermal budget only drains while serving, so once degraded a service
// never sprints again), and whether the whole request ran at full width.
// width and sprintW are the request's effective parallelism and sprint
// power — the class constants except under a workload width cap, where a
// narrow request serves at its own width and proportionally lower power.
//
//sprint:hotpath
func (s *sim) serve(n *node, workS, width, sprintW float64) (serviceS, energyJ, sprintS float64, full bool) {
	cl := s.cl(n)
	nominalW := cl.nominalW
	remaining := workS
	full = true
	for remaining > 1e-12 {
		maxFullS := n.gov.MaxSprintS(sprintW)
		switch {
		case maxFullS*width >= remaining:
			dt := remaining / width
			n.gov.RecordSprint(sprintW, dt)
			serviceS += dt
			energyJ += sprintW * dt
			sprintS += dt
			remaining = 0
		case maxFullS > 1e-9:
			n.gov.RecordSprint(sprintW, maxFullS)
			serviceS += maxFullS
			energyJ += sprintW * maxFullS
			sprintS += maxFullS
			remaining -= maxFullS * width
			full = false
		default:
			dt := remaining
			n.gov.Idle(dt)
			serviceS += dt
			energyJ += nominalW * dt
			remaining = 0
			full = false
		}
	}
	return serviceS, energyJ, sprintS, full
}

// complete finishes the node's in-service copy and starts the next live
// queued copy, lazily cancelling copies whose request already finished
// elsewhere.
//
//sprint:hotpath
func (s *sim) complete(n *node) {
	c := n.cur
	n.busy = false
	s.lastDoneS = s.nowS
	s.reqs[c.req].copies--
	if s.rec != nil {
		// One copy departed the node while it is between services — the
		// instant a hypothetically queued copy would advance, before the
		// next real service consumes governor budget.
		s.rec.departed(s, n)
	}
	win := s.reqs[c.req].doneS < 0
	if s.rel != nil && win {
		r := &s.reqs[c.req]
		if c.attempt != r.attempt {
			// The client abandoned this attempt (timeout, fault, or a
			// terminal state — all of them bump the attempt counter before
			// acting): the service happened, the response is useless.
			win = false
			s.m.WastedServices++
			if s.rec != nil && s.rec.cfg.Level == trace.LevelFull {
				s.rec.event(s, trace.Event{Kind: "stale-complete", Node: n.id, Rack: rackOf(s, n), Req: int(c.req), Phase: int(r.phase)})
			}
		} else if s.rel.faultProb > 0 && s.rel.rng.Float64() < s.rel.faultProb {
			// Transient fault: the response is garbage; the client retries
			// exactly as if the attempt had timed out.
			win = false
			s.m.TransientFaults++
			if s.scen != nil {
				s.scen.acc[r.phase].faults++
			}
			if s.rec != nil {
				s.rec.event(s, trace.Event{Kind: "fault", Node: n.id, Rack: rackOf(s, n), Req: int(c.req), Phase: int(r.phase)})
			}
			s.clientRetry(c.req)
		}
	}
	if win {
		r := &s.reqs[c.req]
		r.doneS = s.nowS
		lat := s.nowS - r.arrivalS
		if s.hist != nil {
			s.hist.Observe(lat)
		} else {
			s.latencies = append(s.latencies, lat)
		}
		s.m.Completed++
		if s.scen != nil {
			s.scen.acc[r.phase].observe(lat)
		}
		if s.wl != nil {
			s.wl.observe(r.slo, lat)
		}
		if c.hedge {
			s.m.HedgeWins++
		}
		if s.rec != nil {
			s.rec.reqDone(lat)
			if c.hedge {
				s.rec.event(s, trace.Event{Kind: "hedge-win", Node: n.id, Rack: rackOf(s, n), Req: int(c.req), Phase: int(r.phase), DurS: lat})
			}
			if s.rec.cfg.Level == trace.LevelFull {
				s.rec.event(s, trace.Event{Kind: "complete", Node: n.id, Rack: rackOf(s, n), Req: int(c.req), Phase: int(r.phase), DurS: lat})
			}
		}
	}
	if s.wl != nil && s.wl.disc != wlFIFO {
		s.dequeueDisciplined(n)
	} else {
		s.dequeueFIFO(n)
	}
	if n.head == len(n.queue) {
		n.queue = n.queue[:0]
		n.head = 0
		n.queuedNaiveS = 0
	}
	s.touch(n)
}

// dequeueFIFO starts the next live queued copy in arrival order — the
// default dequeue, split out of complete so the workload disciplines can
// swap it (see dequeueDisciplined in workload.go).
//
//sprint:hotpath
func (s *sim) dequeueFIFO(n *node) {
	for n.head < len(n.queue) {
		next := n.queue[n.head]
		n.head++
		n.queuedNaiveS -= s.reqs[next.req].workS / s.cl(n).width
		// A copy whose request already finished elsewhere, or whose
		// attempt the client abandoned (the attempt mismatch covers every
		// reliability-terminal state and every retry — they all bump the
		// counter), is skipped instead of served.
		if s.reqs[next.req].doneS >= 0 ||
			(s.rel != nil && next.attempt != s.reqs[next.req].attempt) {
			s.reqs[next.req].copies--
			s.m.CancelledCopies++
			if s.rec != nil {
				s.rec.departed(s, n)
			}
			continue
		}
		s.startService(n, next)
		break
	}
}

// estFinishAt estimates when a request of the given work would finish on
// the node: start at the absolute instant the node's backlog drains at
// full width (its routing key; now for an idle node), project the thermal
// budget's refill to that start, then apply the governed service model.
// It is an estimator, not the simulator (queued services will also spend
// budget), but it is exactly the "most usable thermal headroom" signal
// sprint-aware dispatch routes on.
//
//sprint:hotpath
func (s *sim) estFinishAt(n *node, workS float64) float64 {
	cl := s.cl(n)
	startS := s.nowS
	if n.busy {
		startS = n.busyUntilS + n.queuedNaiveS
	}
	remJ := n.gov.RemainingJ()
	if dt := startS - n.gov.Now(); dt > 0 {
		remJ = math.Min(cl.capJ, remJ+cl.drainW*dt)
	}
	var svc float64
	if cl.netW <= 0 {
		svc = workS / cl.width
	} else {
		fullS := remJ / cl.netW
		if workS/cl.width <= fullS {
			svc = workS / cl.width
		} else {
			svc = fullS + (workS - fullS*cl.width)
		}
	}
	return startS + svc
}

// drainKey is the least-loaded routing score: the absolute instant the
// node's backlog drains at full sprint width, −Inf when idle. Ordering
// nodes by it is ordering by outstanding work (every candidate shares the
// same now), but the key changes only when the node's state does.
//
//sprint:hotpath
func (n *node) drainKey() float64 {
	if n.busy {
		return n.busyUntilS + n.queuedNaiveS
	}
	return math.Inf(-1)
}

// selectNode picks the destination node for a request copy under the
// configured policy. exclude (≥ 0) removes a node from consideration
// (hedging never duplicates onto the original node). It returns nil when
// no eligible node has queue space (round-robin instead returns its next
// node regardless, modelling a state-blind dispatcher).
//
// The rotation counter advances once per selection and score ties break
// to the first node in rotation order from it, so selection stays
// deterministic and an all-idle fleet spreads consecutive arrivals
// instead of herding onto node 0. The indexed and linear-scan selectors
// implement identical semantics; see index.go.
//
//sprint:hotpath
func (s *sim) selectNode(workS float64, exclude int) *node {
	if s.cfg.Policy == RoundRobin {
		// The dispatcher is state-blind but not necromantic: it skips dead
		// nodes, returning nil only when the whole fleet is down.
		for i := 0; i < len(s.nodes); i++ {
			n := &s.nodes[s.rr%len(s.nodes)]
			s.rr++
			if n.alive {
				return n
			}
		}
		return nil
	}
	start := s.rr
	s.rr++
	if s.useRef || (s.cfg.Policy == SprintAware && exclude >= 0) {
		// Sprint-aware exclusion never happens today (hedging scores by
		// load), so the indexed path does not implement it; fall back to
		// the reference scan should a future policy combination need it.
		return s.refSelect(workS, exclude, start)
	}
	rot := start % len(s.nodes)
	var best *node
	if s.cfg.Policy == SprintAware {
		best = s.sprintAwareMin(rot, workS)
	} else {
		var exFull bool
		var exD float64
		var exSeg *dispatchIndex
		if exclude >= 0 {
			exSeg = s.segs[s.segIdx[exclude]].idx
			exFull, exD = exSeg.disable(exclude - s.segs[s.segIdx[exclude]].lo)
		}
		if id := s.segArgmin(rot); id >= 0 {
			best = &s.nodes[id]
		}
		if exclude >= 0 {
			exSeg.update(exclude-s.segs[s.segIdx[exclude]].lo, exFull, exD)
		}
	}
	if best == nil {
		// Every eligible node is at queue capacity: fall back to the
		// reference scan, whose bestFull half picks the best-scoring full
		// node so the inevitable drop is attributed to the node the
		// request would have joined (sum(NodeStats.Dropped) == Dropped).
		best = s.refSelect(workS, exclude, start)
	}
	return best
}

// sprintAwareMin finds the node minimizing the governed finish estimate
// in O(log N) typical time, merging the per-segment tree groups under
// the total candidate order (score, rotation distance) — which is
// exactly the linear scan's first-strict-minimum rotating tie-break, so
// any segmentation (one tree, or one per class block) selects the same
// node.
//
// Within each segment the idle side is resolved first: firstLE names
// the first node in local rotation order whose projected budget covers
// the request at full width — the exact tie set of the linear scan
// restricted to the segment, since every such node scores
// startS + work/width with identical floats — and when no budget
// suffices, the argmin of the budget instant is the unique best idle
// candidate. (A segment spans one class, so its projection constants
// are uniform; a 1-wide class serves every request in workS regardless
// of budget, making all its idle nodes tie like the netW ≤ 0 case.)
// Busy nodes are then enumerated best-first by backlog-drain key with
// the admissible bound key + work/width: the enumeration stops as soon
// as the bound exceeds the incumbent, which with healthy budgets is
// immediately (the idle champion already scores the bound's minimum),
// and only in a saturated fleet of depleted budgets widens toward the
// old full scan.
//
//sprint:hotpath
func (s *sim) sprintAwareMin(rot int, workS float64) *node {
	nn := len(s.nodes)
	var best *node
	var bestScore float64
	bestRot := 0
	//sprintvet:ignore allocfree take is called only from this frame and never escapes, so it is stack-allocated; TestSimulateSteadyStateAllocations pins the steady-state loop alloc-free
	take := func(id int) {
		n := &s.nodes[id]
		sc := s.estFinishAt(n, workS)
		rd := id - rot
		if rd < 0 {
			rd += nn
		}
		if best == nil || sc < bestScore || (sc == bestScore && rd < bestRot) {
			best, bestScore, bestRot = n, sc, rd
		}
	}

	// Idle champions, one per segment. The threshold asks for a projected
	// budget of net·(work/width) joules — capped at the full budget, the
	// most any idle node of the class can hold (beyond it every saturated
	// node ties). lrot is the global rotation restricted to the segment:
	// the cyclic walk from rot crosses a contiguous block either as one
	// run (entering at lo) or as [rot, hi) then [lo, rot).
	for si := range s.segs {
		sg := &s.segs[si]
		cl := &s.classes[sg.class]
		lrot := 0
		if rot >= sg.lo && rot < sg.hi {
			lrot = rot - sg.lo
		}
		idle := -1
		if cl.netW <= 0 || cl.width <= 1 {
			// Sprinting is sustainable (or widthless): every idle node of
			// the class serves identically and ties exactly, so the
			// rotation alone picks the segment's champion.
			idle = sg.idleIdx.firstLE(lrot, math.Inf(1))
		} else {
			needJ := cl.netW * workS / cl.width
			if needJ > cl.capJ {
				needJ = cl.capJ
			}
			thresh := -needJ
			if cl.drainW > 0 {
				thresh = s.nowS - needJ/cl.drainW
			}
			if idle = sg.idleIdx.firstLE(lrot, thresh); idle < 0 {
				idle = sg.idleIdx.argmin(lrot)
			}
		}
		if idle >= 0 {
			take(sg.lo + idle)
		}
	}

	// Busy enumeration per segment under the shared incumbent and the
	// segment class's admissible bound. The strict > keeps bound ties in
	// play, so a later segment can still win an exact score tie on
	// rotation distance — segment visit order never matters.
	for si := range s.segs {
		sg := &s.segs[si]
		wow := workS / s.classes[sg.class].width
		t := sg.busyIdx
		t.resetFrontier()
		for len(t.scratch) > 0 {
			e := t.fpop()
			if best != nil && e.d+wow > bestScore {
				break // everything still frontiered is bounded above the winner
			}
			if int(e.idx) >= t.size { // leaf: evaluate the true score
				take(sg.lo + int(e.idx) - t.size)
				continue
			}
			for c := 2 * e.idx; c <= 2*e.idx+1; c++ {
				if !t.full[c] {
					t.fpush(idxEnt{d: t.d[c], idx: c})
				}
			}
		}
	}
	return best
}

// refSelect is the O(N) linear-scan reference selector: the pre-index
// implementation retained verbatim (over the same canonical scores) so
// the determinism suite can prove the dispatch index reproduces it
// exactly. The scan starts at the rotating index and keeps the first
// strict minimum it meets, preferring any node with queue space over any
// full one.
func (s *sim) refSelect(workS float64, exclude, start int) *node {
	var best, bestFull *node
	var bestScore, bestFullScore float64
	nn := len(s.nodes)
	for i := 0; i < nn; i++ {
		n := &s.nodes[(start+i)%nn]
		if n.id == exclude || !n.alive {
			continue
		}
		var sc float64
		if s.cfg.Policy == SprintAware {
			sc = s.estFinishAt(n, workS)
		} else {
			sc = n.drainKey()
		}
		if n.outstanding() >= s.cl(n).queueCap {
			if bestFull == nil || sc < bestFullScore {
				bestFull, bestFullScore = n, sc
			}
			continue
		}
		if best == nil || sc < bestScore {
			best, bestScore = n, sc
		}
	}
	if best == nil {
		return bestFull
	}
	return best
}

// finish assembles the metrics. Every float it reports is reduced in a
// canonical order — latency mean over the request arena in arena order,
// energy and throttled time in node/rack order — never in event-
// completion order, so the sequential and sharded engines produce
// bit-identical sums even where float addition does not commute.
func (s *sim) finish() Metrics {
	if s.rec != nil {
		// The arena is still live here; finalize reads realized completion
		// times out of it to fill the counterfactual regret columns.
		s.rec.finalize(s)
	}
	m := s.m
	m.SimS = s.lastDoneS
	// The latency mean is summed over the arena rather than the
	// histogram/buffer: completion order differs across engines (and the
	// exact path historically summed after sorting), while arena order is
	// the arrival trace — a pure function of the configuration.
	sum, cnt := 0.0, 0
	for i := range s.reqs {
		if r := &s.reqs[i]; r.doneS >= 0 {
			sum += r.doneS - r.arrivalS
			cnt++
		}
	}
	if cnt > 0 {
		m.MeanS = sum / float64(cnt)
	}
	if s.hist != nil {
		m.ApproxQuantiles = true
		if s.hist.Count() > 0 {
			m.P50S = s.hist.Quantile(0.50)
			m.P95S = s.hist.Quantile(0.95)
			m.P99S = s.hist.Quantile(0.99)
			m.P999S = s.hist.Quantile(0.999)
			m.MaxS = s.hist.Max()
		}
	} else {
		sort.Float64s(s.latencies)
		if n := len(s.latencies); n > 0 {
			m.P50S = series.Quantile(s.latencies, 0.50)
			m.P95S = series.Quantile(s.latencies, 0.95)
			m.P99S = series.Quantile(s.latencies, 0.99)
			m.P999S = series.Quantile(s.latencies, 0.999)
			m.MaxS = s.latencies[n-1]
		}
	}
	if m.SimS > 0 {
		// Throughput counts every service that delivered a response,
		// useful or not; goodput only the client-useful ones. With the
		// reliability layer off the wasted/faulted counts are zero and
		// both reduce to the historical Completed / SimS.
		m.ThroughputRPS = float64(m.Completed+m.WastedServices+m.TransientFaults) / m.SimS
		m.GoodputRPS = float64(m.Completed) / m.SimS
	}
	if m.Requests > 0 {
		m.RetryAmplification = float64(m.Requests+m.Retries) / float64(m.Requests)
	}
	served, denials := 0, 0
	m.Nodes = make([]NodeStats, len(s.nodes))
	for i := range s.nodes {
		n := &s.nodes[i]
		n.stats.ID = n.id
		n.stats.Rack = n.rackID
		m.Nodes[i] = n.stats
		served += n.stats.Served
		denials += n.stats.Denials
		m.TotalEnergyJ += n.stats.EnergyJ
		if n.stats.EnergyJ > m.MaxNodeEnergyJ {
			m.MaxNodeEnergyJ = n.stats.EnergyJ
		}
	}
	if s.racks != nil {
		m.Racks = make([]RackStats, len(s.racks))
		for i := range s.racks {
			r := &s.racks[i]
			// The event list has drained, so every admitted sprint phase
			// must have retired; a residue means a grant/end pairing bug
			// (e.g. a TokenPermit release without its grant, or a failed
			// node's sprint draw never retired from its rack).
			if r.sprinting != 0 || r.permits != 0 || math.Abs(r.sprintExtraW) > 1e-6 {
				panic(fmt.Sprintf("fleet: rack %d finished with %d sprinting / %d permits / %.3g W outstanding",
					r.id, r.sprinting, r.permits, r.sprintExtraW))
			}
			r.stats.ID = r.id
			r.stats.Nodes = r.size
			m.Racks[i] = r.stats
			// Reduced here in rack order (not accumulated in trip order)
			// so the sharded engines report the identical float.
			m.RackThrottledS += r.stats.ThrottledS
		}
		for i := range s.nodes {
			m.Racks[s.nodes[i].rackID].EnergyJ += s.nodes[i].stats.EnergyJ
		}
		if m.PermitRequests > 0 {
			m.PermitDenialRate = float64(m.PermitDenials) / float64(m.PermitRequests)
		}
	}
	if served > 0 {
		m.SprintDenialRate = float64(denials) / float64(served)
	}
	if len(s.nodes) > 0 {
		m.MeanNodeEnergyJ = m.TotalEnergyJ / float64(len(s.nodes))
	}
	if m.Completed > 0 {
		m.EnergyPerRequestJ = m.TotalEnergyJ / float64(m.Completed)
	}
	if s.scen != nil {
		m.Phases = s.scen.phaseMetrics()
	}
	if s.wl != nil {
		// The arena is still live here; assemble derives every per-class
		// and per-tenant figure from it in arena order.
		s.wl.assemble(s, &m)
	}
	return m
}
