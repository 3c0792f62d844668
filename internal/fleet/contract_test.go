package fleet

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"sprinting/internal/trace"
)

// The determinism contract: a fleet run is a pure function of its Spec.
// It yields the same Metrics and the same recording bytes at any worker
// count, under the O(log N) dispatch index and the O(N) reference scan
// alike, with the recorder attached or not, and through a record→replay
// round trip; and every breakdown (nodes, racks, phases, classes,
// tenants) partitions the fleet totals. checkContract holds one row to
// all of it. A feature joins the contract by adding an axis to genSpec
// or a row to contractTable, not by writing another equivalence test.

// An oracle is one contract check that needs runs beyond the row's base
// run. The bookkeeping oracles (conservation, sums, reliability-off or
// reliability-rates) read the base run alone and hold for every row.
type oracle uint8

const (
	oWorkers      oracle = 1 << iota // untraced Metrics equal at every row worker count
	oRef                             // indexed dispatch Metrics equal refDispatch's
	oTraced                          // traced Metrics equal untraced
	oTraceRef                        // recording bytes equal refDispatch's (the alternatives lookup)
	oTraceWorkers                    // recording bytes and Metrics equal at every row worker count
	oReplay                          // record → ReplayFromRecording → replay reproduces the Metrics
	allOracles    = oWorkers | oRef | oTraced | oTraceRef | oTraceWorkers | oReplay
)

var (
	// contractWorkers are the shard layouts the worker oracles compare: 1
	// (the sequential loop), an even split, a rack-count divisor
	// mismatch, and a prime that forces ragged rack groups.
	contractWorkers  = []int{1, 2, 4, 7}
	allCoordinations = append([]Coordination{NoCoordination}, Coordinations()...)
	tokenOrNone      = []Coordination{NoCoordination, TokenPermit}
)

// want is a path assertion: a row whose config stops exercising the path
// it was written for fails instead of passing vacuously.
type want struct {
	name string
	ok   func(Metrics) bool
}

var (
	wantDrops        = want{"drops", func(m Metrics) bool { return m.Dropped > 0 }}
	wantTimeouts     = want{"timeouts", func(m Metrics) bool { return m.TimedOut > 0 }}
	wantRackFailures = want{"rack failures", func(m Metrics) bool { return m.RackFailures > 0 }}
	wantApprox       = want{"streamed quantiles", func(m Metrics) bool { return m.ApproxQuantiles }}
	wantChurn        = want{"node failures, recoveries, failovers", func(m Metrics) bool { return m.NodeFailures > 0 && m.NodeRecoveries > 0 && m.Redispatches > 0 }}
	wantTenants      = want{"2 classes, 3 tenants", func(m Metrics) bool { return len(m.Classes) == 2 && len(m.Tenants) == 3 }}
)

// row is one case of the contract: a Spec (its Config.Trace is the level
// the traced oracles record at, decisions when off), the oracles it runs,
// and the paths it must exercise.
type row struct {
	name    string
	spec    Spec
	oracles oracle
	workers []int // worker counts of oWorkers and oTraceWorkers; nil selects contractWorkers
	want    []want
	extra   func(*testing.T, Metrics) // a row-specific check on the base run
	long    bool                      // skipped under -short
}

// family is the rows that replaced one or more hand-written tests.
type family struct {
	name string
	rows []row
}

func TestRunContract(t *testing.T) {
	for _, f := range contractTable() {
		t.Run(f.name, func(t *testing.T) {
			for _, r := range f.rows {
				t.Run(r.name, func(t *testing.T) { checkContract(t, r) })
			}
		})
	}
}

// FuzzRunContract feeds genSpec from the fuzz input, so the fuzzer
// steers every axis draw; each draw runs every oracle.
func FuzzRunContract(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x9a\x41\x03\xf0\x22\x5e\x81\x17\xc4\x69\x0b\xd2\x38\x90\x7f\x15"))
	f.Add([]byte("\x60\x00\x00\x00\x03\xff\x80\x10\x45\x00\xa0\x01\x02\x03\x04\x05\x06\x07"))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkContract(t, genSpec(rand.New(&byteSource{data})))
	})
}

// byteSource is a rand.Source that replays fuzz bytes as its stream and
// yields zeros once they run out.
type byteSource struct{ b []byte }

func (s *byteSource) Int63() int64 {
	var v [8]byte
	s.b = s.b[copy(v[:], s.b):]
	return int64(binary.BigEndian.Uint64(v[:]) >> 1)
}

func (s *byteSource) Seed(int64) {}

// checkContract runs the row's Spec once per distinct simulation its
// oracles need and holds every result to them, each oracle a subtest.
func checkContract(t *testing.T, r row) {
	t.Helper()
	if r.long && testing.Short() {
		t.Skip("trace above the exact-quantile cutoff")
	}
	if r.workers == nil {
		r.workers = contractWorkers
	}
	check := func(o oracle, name string, f func(t *testing.T)) {
		if r.oracles&o != 0 {
			t.Run(name, f)
		}
	}
	untraced := r.spec
	untraced.Config.Trace = TraceConfig{}
	base, _ := contractRun(t, untraced, 0)
	checkBooks(t, r.spec, base)
	for _, w := range r.want {
		if !w.ok(base) {
			t.Errorf("the row no longer exercises its path: %s", w.name)
		}
	}
	if r.extra != nil {
		r.extra(t, base)
	}
	check(oWorkers, "workers", func(t *testing.T) {
		for _, w := range r.workers {
			m, _ := contractRun(t, untraced, w)
			same(t, fmt.Sprintf("workers=%d Metrics", w), m, base)
		}
	})
	check(oRef, "ref", func(t *testing.T) {
		var m Metrics
		withRefDispatch(t, func() { m, _ = contractRun(t, untraced, 0) })
		same(t, "reference-scan Metrics", m, base)
	})
	if !replayable(r.spec) {
		r.oracles &^= oReplay
	}
	if r.oracles&(oTraced|oTraceRef|oTraceWorkers|oReplay) == 0 {
		return
	}
	tspec := r.spec
	tspec.Config = traced(tspec.Config)
	tm, tr := contractRun(t, tspec, 0)
	check(oTraced, "traced", func(t *testing.T) { same(t, "traced Metrics", tm, base) })
	if r.oracles&(oTraceRef|oTraceWorkers) != 0 {
		traceBytes(t, tr) // the recording must encode
	}
	check(oTraceRef, "trace-ref", func(t *testing.T) {
		var ref *trace.Trace
		withRefDispatch(t, func() { _, ref = contractRun(t, tspec, 0) })
		sameRecording(t, "reference-scan", ref, tr)
	})
	check(oTraceWorkers, "trace-workers", func(t *testing.T) {
		for _, w := range r.workers {
			m, got := contractRun(t, tspec, w)
			same(t, fmt.Sprintf("workers=%d traced Metrics", w), m, tm)
			sameRecording(t, fmt.Sprintf("workers=%d", w), got, tr)
		}
	})
	check(oReplay, "replay", func(t *testing.T) {
		rows, err := ReplayFromRecording(tr)
		if err != nil {
			t.Fatal(err)
		}
		m, _ := contractRun(t, Spec{Config: untraced.Config, Replay: rows}, 0)
		same(t, "replayed Metrics", m, base)
	})
}

// contractRun runs spec at the given worker count.
func contractRun(t *testing.T, spec Spec, workers int) (Metrics, *trace.Trace) {
	t.Helper()
	spec.Config.Workers = workers
	m, tr, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return m, tr
}

// withRefDispatch runs fn with every selection routed through the
// reference scan and restores the indexed path however fn exits (a
// t.Fatal inside fn unwinds through the defer).
func withRefDispatch(t *testing.T, fn func()) {
	t.Helper()
	refDispatch = true
	defer func() { refDispatch = false }()
	fn()
}

// replayable reports whether ReplayFromRecording reproduces the spec's
// arrivals: the synthetic source and unlabeled replays, whose arenas
// carry nothing but arrival instants and work.
func replayable(spec Spec) bool {
	for _, r := range spec.Replay {
		if r != (TraceRequest{ArrivalS: r.ArrivalS, WorkS: r.WorkS}) {
			return false
		}
	}
	return spec.Scenario == nil && spec.Workload == nil
}

func same(t *testing.T, what string, got, want Metrics) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s diverged from the base run:\n%+v\n%+v", what, got, want)
	}
}

// sameRecording holds got to want's JSONL bytes. WriteJSONL is a
// deterministic, injective function of a recording's exported fields, so
// two recordings equal field by field, floats bit for bit, encode to the
// same bytes; only a mismatch is encoded, to decide it on the bytes and
// report the first differing line. (Encoding every recording would about
// double TestRunContract's CPU time.)
func sameRecording(t *testing.T, what string, got, want *trace.Trace) {
	t.Helper()
	if sameValue(reflect.ValueOf(got), reflect.ValueOf(want)) {
		return
	}
	if gb, wb := traceBytes(t, got), traceBytes(t, want); !bytes.Equal(gb, wb) {
		gl, wl := bytes.Split(gb, []byte("\n")), bytes.Split(wb, []byte("\n"))
		i := 0
		for i < min(len(gl), len(wl))-1 && bytes.Equal(gl[i], wl[i]) {
			i++
		}
		t.Errorf("%s recording diverged at JSONL line %d:\ngot:  %s\nwant: %s", what, i+1, gl[i], wl[i])
	}
}

// sameValue is reflect.DeepEqual over the recording's types, except that
// floats compare bit for bit (their encodings tell -0 from 0).
func sameValue(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameValue(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := range a.Len() {
			if !sameValue(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := range a.NumField() {
			if !sameValue(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	}
	return a.Equal(b)
}

// checkBooks holds the base run to the bookkeeping oracles.
func checkBooks(t *testing.T, spec Spec, m Metrics) {
	t.Helper()
	t.Run("conservation", func(t *testing.T) {
		if got := m.Completed + m.Dropped + m.TimedOut + m.Shed; got != m.Requests {
			t.Errorf("%d completed + %d dropped + %d timed out + %d shed = %d, want %d requests",
				m.Completed, m.Dropped, m.TimedOut, m.Shed, got, m.Requests)
		}
	})
	t.Run("sums", func(t *testing.T) { checkSums(t, spec, m) })
	rl := spec.Config.Reliability
	if !rl.enabled() {
		t.Run("reliability-off", func(t *testing.T) {
			// Only a workload's admission budgets shed with the layer off.
			shed := m.Shed != m.AdmissionShed || (spec.Workload == nil && m.Shed != 0)
			if m.TimedOut != 0 || shed || m.Retries != 0 || m.TransientFaults != 0 ||
				m.WastedServices != 0 || m.GrayNodes != 0 || m.GoodputRPS != m.ThroughputRPS || m.RetryAmplification != 1 {
				t.Errorf("the layer is off, yet its counters moved, goodput != throughput, or amplification != 1: %+v", m)
			}
		})
		return
	}
	t.Run("reliability-rates", func(t *testing.T) {
		amp := float64(m.Requests+m.Retries) / float64(m.Requests)
		thr := float64(m.Completed+m.WastedServices+m.TransientFaults) / m.SimS
		if math.Abs(m.RetryAmplification-amp) > 1e-12 || math.Abs(m.ThroughputRPS-thr) > 1e-12 || m.GoodputRPS > m.ThroughputRPS {
			t.Errorf("amplification %g (want %g), throughput %g (want %g), goodput %g",
				m.RetryAmplification, amp, m.ThroughputRPS, thr, m.GoodputRPS)
		}
		if n := len(m.Nodes); rl.GrayFrac > 0 && m.GrayNodes != min(max(int(math.Round(rl.GrayFrac*float64(n))), 1), n) {
			t.Errorf("GrayNodes = %d, want round(%g·%d)", m.GrayNodes, rl.GrayFrac, n)
		}
	})
}

// checkSums holds every per-node, per-rack, per-phase, per-class and
// per-tenant breakdown to the fleet totals it partitions.
func checkSums(t *testing.T, spec Spec, m Metrics) {
	t.Helper()
	for _, s := range []struct {
		parts any // a breakdown slice; an empty one has nothing to sum
		field string
		total int
	}{
		{m.Nodes, "Dropped", m.Dropped}, {m.Nodes, "TimedOut", m.TimedOut}, {m.Nodes, "Retries", m.Retries},
		{m.Nodes, "Failures", m.NodeFailures}, {m.Nodes, "Gray", m.GrayNodes},
		{m.Racks, "Trips", m.BreakerTrips}, {m.Racks, "SprintRequests", m.PermitRequests},
		{m.Racks, "PermitDenials", m.PermitDenials},
		{m.Phases, "Offered", m.Requests}, {m.Phases, "Completed", m.Completed}, {m.Phases, "Dropped", m.Dropped},
		{m.Phases, "TimedOut", m.TimedOut}, {m.Phases, "Shed", m.Shed}, {m.Phases, "Retries", m.Retries},
		{m.Phases, "TransientFaults", m.TransientFaults}, {m.Phases, "Redispatches", m.Redispatches},
		{m.Phases, "NodeFailures", m.NodeFailures}, {m.Phases, "BreakerTrips", m.BreakerTrips},
		{m.Classes, "Offered", m.Requests}, {m.Classes, "Completed", m.Completed}, {m.Classes, "Dropped", m.Dropped},
		{m.Classes, "TimedOut", m.TimedOut}, {m.Classes, "Shed", m.Shed}, {m.Classes, "Retries", m.Retries},
		{m.Classes, "AdmissionShed", m.AdmissionShed},
		{m.Tenants, "Offered", m.Requests}, {m.Tenants, "Completed", m.Completed},
	} {
		if got := sumOf(s.parts, s.field); reflect.ValueOf(s.parts).Len() > 0 && got != s.total {
			t.Errorf("%T.%s sums to %d, fleet total %d", s.parts, s.field, got, s.total)
		}
	}
	for _, ph := range m.Phases {
		if ph.Offered > 0 && math.Abs(ph.ShedRate-float64(ph.Shed)/float64(ph.Offered)) > 1e-12 {
			t.Errorf("phase %s: ShedRate %g, want %d/%d", ph.Name, ph.ShedRate, ph.Shed, ph.Offered)
		}
	}
	for _, c := range m.Classes {
		if got := c.Completed + c.Dropped + c.TimedOut + c.Shed; got != c.Offered {
			t.Errorf("class %s: outcomes %d != offered %d", c.Name, got, c.Offered)
		}
	}
	if m.JainFairness < 0 || m.JainFairness > 1 {
		t.Errorf("Jain fairness %g outside [0, 1]", m.JainFairness)
	}
	if m.Coordination == NoCoordination {
		return
	}
	size, nn := spec.Config.withDefaults().RackSize, len(m.Nodes)
	if len(m.Racks) != (nn+size-1)/size {
		t.Errorf("%d nodes in racks of %d make %d racks, got %d", nn, size, (nn+size-1)/size, len(m.Racks))
	}
	throttled, energy := 0.0, 0.0
	for i, r := range m.Racks {
		if r.ID != i || r.Nodes != min(size, nn-i*size) {
			t.Errorf("rack %d: ID %d with %d nodes, want %d nodes", i, r.ID, r.Nodes, min(size, nn-i*size))
		}
		throttled += r.ThrottledS
		energy += r.EnergyJ
	}
	for _, n := range m.Nodes {
		if n.Rack != n.ID/size {
			t.Errorf("node %d in rack %d, want %d", n.ID, n.Rack, n.ID/size)
		}
	}
	if throttled != m.RackThrottledS || math.Abs(energy-m.TotalEnergyJ) > 1e-9*m.TotalEnergyJ {
		t.Errorf("per-rack throttle %g s and energy %g J; fleet %g s and %g J", throttled, energy, m.RackThrottledS, m.TotalEnergyJ)
	}
}

// sumOf adds a breakdown slice's named int field, counting a bool field
// as 0 or 1.
func sumOf(parts any, field string) int {
	v, sum := reflect.ValueOf(parts), 0
	for i := 0; i < v.Len(); i++ {
		if f := v.Index(i).FieldByName(field); f.Kind() == reflect.Bool {
			if f.Bool() {
				sum++
			}
		} else {
			sum += int(f.Int())
		}
	}
	return sum
}

// cross names one row per policy × coordination, after the name mk
// gives it.
func cross(ps []Policy, cs []Coordination, mk func(Policy, Coordination) row) []row {
	var rows []row
	for _, p := range ps {
		for _, c := range cs {
			r := mk(p, c)
			r.name = fmt.Sprintf("%s%s/%s", r.name, p, c)
			rows = append(rows, r)
		}
	}
	return rows
}

// racked puts cfg under coordination c in racks of size.
func racked(cfg Config, c Coordination, size int) Config {
	cfg.Coordination = c
	if c != NoCoordination {
		cfg.RackSize = size
	}
	return cfg
}

// contractTable is every named row, grouped by the hand-written tests
// they replaced, plus the seeded generator's draws.
func contractTable() []family {
	gen := make([]row, contractDraws)
	rng := rand.New(rand.NewSource(0x5eed))
	for i := range gen {
		gen[i] = genSpec(rng)
		gen[i].name = fmt.Sprintf("%d/%s", i, gen[i].name)
	}
	sa, none := []Policy{SprintAware}, []Coordination{NoCoordination}
	return []family{
		{"grid", gridRows()},
		{"high-load", cross(Policies(), none, func(p Policy, _ Coordination) row {
			return row{spec: Spec{Config: highLoad(p)}, oracles: oWorkers, workers: []int{1}}
		})},
		{"rack-contrast", cross(sa, Coordinations(), func(_ Policy, c Coordination) row {
			return row{spec: Spec{Config: rackContrast(c)}, oracles: oWorkers, workers: []int{1}}
		})},
		{"rack-accounting", cross(sa, []Coordination{Uncoordinated}, func(_ Policy, c Coordination) row {
			cfg := rackContrast(c)
			cfg.Nodes, cfg.RackSize, cfg.RackPowerBudgetW = 20, 8, 0 // racks of 8, 8, 4
			return row{spec: Spec{Config: cfg}}
		})},
		{"workers-clamp", cross([]Policy{SprintAware, RoundRobin}, none, func(p Policy, _ Coordination) row {
			cfg := DefaultConfig(p)
			cfg.Nodes, cfg.Requests = 6, 500 // 1000 workers clamp to 6 rack groups of one node
			return row{spec: Spec{Config: cfg}, oracles: oWorkers, workers: []int{1000}}
		})},
		{"at-scale", cross(Policies(), none, func(p Policy, _ Coordination) row {
			cfg := DefaultConfig(p)
			cfg.Nodes, cfg.Requests = 500, 5000 // the index's finish-time drop and rack invariants at scale
			return row{spec: Spec{Config: cfg}}
		})},
		{"drop-attribution", cross(Policies(), none, func(p Policy, _ Coordination) row {
			cfg := DefaultConfig(p)
			cfg.Nodes, cfg.QueueCap = 4, 2
			cfg.ArrivalRatePerS = 2 * float64(cfg.Nodes) / cfg.MeanWorkS // 2× overload
			return row{spec: Spec{Config: cfg}, want: []want{wantDrops}}
		})},
		{"reliability", append(cross(Policies(), allCoordinations, func(p Policy, c Coordination) row {
			cfg := racked(relConfig(p), c, 5)
			cfg.QueueCap = 8             // bound queues so drops can appear
			cfg.Reliability.TimeoutS = 3 // tight enough to exhaust retries
			return row{spec: Spec{Config: cfg}, want: []want{wantTimeouts}}
		}), cross(Policies(), tokenOrNone, func(p Policy, c Coordination) row {
			return row{name: "workers/", spec: Spec{Config: racked(relConfig(p), c, 5)}, oracles: oWorkers}
		})...)},
		{"reliability-churn", cross(Policies(), []Coordination{TokenPermit}, func(p Policy, _ Coordination) row {
			cfg, sc := relChurnScenario() // token-permit racks of 4: rack churn needs racks
			cfg.Policy = p
			cfg.Trace = TraceConfig{Level: trace.LevelFull}
			return row{spec: Spec{Config: cfg, Scenario: &sc}, oracles: oWorkers | oTraceRef, want: []want{wantRackFailures}}
		})},
		{"flash-crowd", append(cross(Policies(), tokenOrNone, func(p Policy, c Coordination) row {
			cfg, sc := flashCrowdChurn()
			cfg = racked(cfg, c, 5)
			cfg.Policy = p
			if p == SprintAware {
				return row{spec: Spec{Config: cfg, Scenario: &sc}, oracles: oWorkers | oTraced | oTraceWorkers}
			}
			return row{spec: Spec{Config: cfg, Scenario: &sc}, oracles: oWorkers}
		}), cross(Policies(), []Coordination{NoCoordination, TokenPermit, Uncoordinated}, func(p Policy, c Coordination) row {
			cfg, sc := flashCrowdChurn()
			cfg.Policy, cfg.Coordination, cfg.QueueCap = p, c, 8 // overload the surge: full-node paths
			sc.Phases[1].AmbientDeltaC = 12
			return row{name: "hot-surge/", spec: Spec{Config: cfg, Scenario: &sc}, oracles: oRef}
		})...)},
		{"churn-accounting", cross(Policies(), none, func(p Policy, _ Coordination) row {
			cfg, sc := flashCrowdChurn()
			cfg.Policy, cfg.QueueCap = p, 4 // small queues: failovers must sometimes drop
			sc.Churn = Churn{MTBFS: 5, MeanDowntimeS: 8}
			return row{spec: Spec{Config: cfg, Scenario: &sc}, want: []want{wantChurn}}
		})},
		{"heterogeneous", heterogeneousRows()},
		{"approx-quantiles", cross([]Policy{RoundRobin}, []Coordination{TokenPermit}, func(p Policy, c Coordination) row {
			cfg := racked(DefaultConfig(p), c, 8)
			cfg.Nodes, cfg.Requests = 32, exactQuantileCutoff+4096
			return row{spec: Spec{Config: cfg}, oracles: oWorkers, workers: []int{2, 7}, want: []want{wantApprox}, long: true}
		})},
		{"traced-unchanged", cross(Policies(), allCoordinations, func(p Policy, c Coordination) row {
			cfg := racked(DefaultConfig(p), c, 6)
			cfg.Nodes, cfg.Requests = 24, 1200
			cfg.ArrivalRatePerS = 1.1 * float64(cfg.Nodes) / cfg.MeanWorkS
			cfg.Trace = TraceConfig{Level: trace.LevelFull, TopK: 5, WindowS: 2}
			return row{spec: Spec{Config: cfg}, oracles: oTraced}
		})},
		{"coincident", cross(Policies(), none, func(p Policy, _ Coordination) row {
			// Dyadic arrivals and full-width service times: completions
			// land exactly on arrival instants, and an arrival fires before
			// a completion at the same instant, so busy nodes draining
			// exactly now tie with the idle set and must win on rotation
			// distance.
			cfg := DefaultConfig(p)
			cfg.Nodes, cfg.QueueCap = 8, 4
			cfg.Trace = TraceConfig{Level: trace.LevelDecisions, TopK: 4}
			rows := make([]TraceRequest, 1200)
			for i := range rows {
				rows[i] = TraceRequest{ArrivalS: float64(i) / 8, WorkS: float64((1 + (i*7+i/3)%8) * cfg.SprintWidth / 8)}
			}
			return row{spec: Spec{Config: cfg, Replay: rows}, oracles: oTraceRef | oReplay}
		})},
		{"workload", cross(sa, tokenOrNone, func(_ Policy, c Coordination) row {
			cfg, w := tenantWorkload()
			cfg.Coordination = c
			return row{spec: Spec{Config: cfg, Workload: &w}, oracles: oWorkers, want: []want{wantTenants}}
		})},
		{"replay-recorded", cross(sa, none, func(p Policy, _ Coordination) row {
			cfg := DefaultConfig(p)
			cfg.Nodes, cfg.Seed, cfg.QueueCap = 8, 9, 2 // tiny queues: replay must regenerate the drops
			cfg.ArrivalRatePerS = 3 * float64(cfg.Nodes) / cfg.MeanWorkS
			return row{spec: Spec{Config: cfg}, oracles: oReplay, want: []want{wantDrops}}
		})},
		{"replay-labeled", cross(sa, none, func(p Policy, _ Coordination) row {
			// Tenant and class labels arm the workload layer.
			rows, at := make([]TraceRequest, 600), 0.0
			for i := range rows {
				at += 0.1 + float64(i%7)*0.03
				rows[i] = TraceRequest{ArrivalS: at, WorkS: 0.5 + float64(i%5), Width: 1 + i%3,
					Tenant: []string{"a", "b", "c"}[i%3], Class: []string{"gold", "best-effort", "gold"}[i%3]}
			}
			cfg := DefaultConfig(p)
			cfg.Nodes, cfg.Seed = 8, 5
			return row{spec: Spec{Config: cfg, Replay: rows}, oracles: oWorkers, want: []want{wantTenants}}
		})},
		{"class-sums", cross(Policies(), Coordinations(), func(p Policy, c Coordination) row {
			_, sc := flashCrowdChurn()
			_, w := tenantWorkload()
			cfg := DefaultConfig(p)
			cfg.Nodes, cfg.Seed, cfg.Coordination = 16, 3, c
			cfg.Reliability = Reliability{TimeoutS: 6, MaxRetries: 3, RetryBackoffS: 0.2, RetryBudgetPerS: 2, RetryBurst: 4,
				GrayFrac: 0.2, GraySlowdownX: 6, FaultProb: 0.02}
			return row{spec: Spec{Config: cfg, Scenario: &sc, Workload: &w}}
		})},
		{"one-cohort", cross(sa, none, oneCohortRow)},
		{"sharded-random", shardedRandomRows()},
		{"generated", gen},
	}
}

// gridRows is the sharding, index and recorder suites' matrix: every
// policy × coordination, 24 nodes × 1500 requests, healthy and overloaded
// into tiny queues (full-node fallback, drop attribution and hedge
// suppression all fire), in ragged racks of 5 (5,5,5,5,4) and in the
// default racks of 8.
func gridRows() []row {
	type pass struct {
		seed    int64
		rack    int
		coords  []Coordination
		trace   TraceConfig
		oracles oracle
	}
	decisions := func(k int) TraceConfig { return TraceConfig{Level: trace.LevelDecisions, TopK: k} }
	passes := []pass{
		{1, 5, allCoordinations, TraceConfig{Level: trace.LevelFull}, allOracles},
		{1, 8, Coordinations(), decisions(3), oRef | oTraceRef}, // uncoordinated seed 1 is the row above
		{7, 8, allCoordinations, decisions(1), oRef | oTraceRef},
		{42, 8, allCoordinations, decisions(6), oRef | oTraceRef},
	}
	for _, seed := range equivalenceSeeds[1:] {
		passes = append(passes, pass{seed, 5, allCoordinations, TraceConfig{}, oWorkers})
	}
	var rows []row
	for si, shape := range []string{"healthy", "overloaded"} {
		for _, ps := range passes {
			rows = append(rows, cross(Policies(), ps.coords, func(p Policy, c Coordination) row {
				cfg := racked(DefaultConfig(p), c, ps.rack)
				cfg.Nodes, cfg.Requests, cfg.Seed, cfg.QueueCap = 24, 1500, ps.seed, []int{256, 3}[si]
				cfg.ArrivalRatePerS = []float64{0.9, 1.6}[si] * float64(cfg.Nodes) / cfg.MeanWorkS
				cfg.Trace = ps.trace
				return row{name: fmt.Sprintf("%s/seed=%d/rack=%d/", shape, ps.seed, ps.rack), spec: Spec{Config: cfg}, oracles: ps.oracles}
			})...)
		}
	}
	return rows
}

// shardedRandomRows are 30 seeded plain-source configs (400–1600
// requests, racks of 1–8 when coordinated), each held to the sequential
// run at its own drawn worker count from 2 to 8; the draw order is fixed,
// so every row keeps its config and worker count.
func shardedRandomRows() []row {
	rng := rand.New(rand.NewSource(0x5eed))
	rows := make([]row, 30)
	for i := range rows {
		cfg := DefaultConfig(Policies()[rng.Intn(len(Policies()))])
		cfg.Coordination = allCoordinations[rng.Intn(len(allCoordinations))]
		cfg.Nodes = 4 + rng.Intn(37)
		cfg.Requests = 400 + rng.Intn(1200)
		cfg.Seed = rng.Int63n(1 << 32)
		cfg.QueueCap = []int{2, 8, 256}[rng.Intn(3)]
		cfg.ArrivalRatePerS = (0.7 + rng.Float64()) * float64(cfg.Nodes) / cfg.MeanWorkS
		if cfg.Coordination != NoCoordination {
			cfg.RackSize = 1 + rng.Intn(8)
		}
		w := 2 + rng.Intn(7)
		rows[i] = row{name: fmt.Sprintf("%d/%s/%s/workers=%d", i, cfg.Policy, cfg.Coordination, w),
			spec: Spec{Config: cfg}, oracles: oWorkers, workers: []int{w}}
	}
	return rows
}

// heterogeneousRows run mixed node classes (several dispatch-index
// segments) through churn: two classes at every worker count against the
// reference scan, and three classes through the alternatives lookup
// under every policy.
func heterogeneousRows() []row {
	big := NodeClass{Name: "big", Count: 4, SprintWidth: 32, BudgetScale: 2, DrainScale: 2}
	mk := func(o oracle, classes ...NodeClass) func(Policy, Coordination) row {
		return func(p Policy, c Coordination) row {
			cfg := racked(DefaultConfig(p), c, 4)
			cfg.Nodes, cfg.Seed = 16, 3
			cfg.Trace = TraceConfig{Level: trace.LevelDecisions, TopK: 5}
			return row{name: fmt.Sprintf("%d-class/", len(classes)), oracles: o, spec: Spec{Config: cfg, Scenario: &Scenario{
				BaseRatePerS: 3,
				Phases:       []Phase{{Name: "steady", DurationS: 120}, {Name: "surge", DurationS: 60, StartFactor: 1.8}},
				Classes:      classes,
				Churn:        Churn{MTBFS: 40, MeanDowntimeS: 5},
			}}}
		}
	}
	token := []Coordination{TokenPermit}
	return append(cross([]Policy{SprintAware}, token, mk(oWorkers|oRef, big, NodeClass{Name: "small", Count: 12, NominalPowerW: 0.5})),
		cross(Policies(), token, mk(oTraceRef, big, NodeClass{Name: "small", Count: 9, NominalPowerW: 0.5},
			NodeClass{Name: "tail", Count: 3, SprintWidth: 4}))...)
}

// oneCohortRow is a one-phase, one-class flat workload past the
// exact-quantile cutoff: a single arrival cohort, so its phase, its
// class and the fleet must report the same counts and the same streamed
// latency distribution bit for bit.
func oneCohortRow(p Policy, _ Coordination) row {
	cfg := DefaultConfig(p)
	cfg.Nodes = 64
	w := WorkloadSpec{
		Classes: []SLOClass{{Name: "all"}},
		Tenants: []TenantSpec{{Name: "t", Class: "all",
			Arrival: ArrivalSpec{Process: "poisson", RatePerS: 250}, Work: WorkSpec{Dist: "exp", MeanS: 0.2}}},
		DurationS: 600,
	}
	type view struct {
		Offered, Completed                   int
		P50S, P95S, P99S, P999S, MaxS, MeanS float64
	}
	return row{spec: Spec{Config: cfg, Workload: &w}, want: []want{wantApprox}, long: true, extra: func(t *testing.T, m Metrics) {
		if len(m.Phases) != 1 || len(m.Classes) != 1 {
			t.Fatalf("got %d phases, %d classes; want one of each", len(m.Phases), len(m.Classes))
		}
		fleet := view{m.Requests, m.Completed, m.P50S, m.P95S, m.P99S, m.P999S, m.MaxS, m.MeanS}
		p, c := m.Phases[0], m.Classes[0]
		for i, got := range []view{
			{p.Offered, p.Completed, p.P50S, p.P95S, p.P99S, p.P999S, p.MaxS, p.MeanS},
			{c.Offered, c.Completed, c.P50S, c.P95S, c.P99S, c.P999S, c.MaxS, c.MeanS},
		} {
			if got != fleet {
				t.Errorf("%s cohort disagrees with the fleet:\n%+v\n%+v", []string{"phase", "class"}[i], got, fleet)
			}
		}
	}}
}

// genSpec draws one row, running every oracle, from the cross-product of
// the run's axes: arrival source (plain, scenario, scenario+workload,
// flat workload, replay), policy, coordination, rack size, node classes,
// node and rack churn, ambient shift, reliability knobs, workload
// discipline, queue cap, trace level and top-k. Draws stay within the
// fuzz caps: at most 40 nodes, and timelines sized for ~200 to ~1400
// arrivals under a 2000-request cap.
func genSpec(rng *rand.Rand) row {
	pick := rng.Intn
	cfg := racked(DefaultConfig(Policies()[pick(4)]), allCoordinations[pick(len(allCoordinations))], 1+pick(8))
	cfg.Nodes, cfg.Seed, cfg.QueueCap = 4+pick(37), rng.Int63n(1<<32), []int{2, 8, 256}[pick(3)]
	if pick(3) == 0 {
		rl := Reliability{MaxRetries: pick(4), RetryBackoffS: 0.2, RetryBudgetPerS: float64(pick(3))}
		switch pick(3) {
		case 0:
			rl.TimeoutS = 3 + 5*rng.Float64()
		case 1:
			rl.GrayFrac, rl.GraySlowdownX = 0.1+0.2*rng.Float64(), 2+4*rng.Float64()
		}
		rl.FaultProb = 0.01 + 0.02*rng.Float64()*float64(pick(2))
		cfg.Reliability = rl
	}
	cfg.Trace = TraceConfig{Level: trace.LevelDecisions + trace.Level(pick(2)), TopK: 1 + pick(6)}
	rate := (0.6 + rng.Float64()) * float64(cfg.Nodes) / cfg.MeanWorkS
	arrivals := 200 + pick(500)
	durS := float64(arrivals) / rate
	spec := Spec{Config: cfg}
	source := []string{"plain", "scenario", "scenario+workload", "workload", "replay"}[pick(5)]
	switch source {
	case "plain":
		spec.Config.Requests, spec.Config.ArrivalRatePerS = arrivals, rate
	case "scenario", "scenario+workload":
		sc := Scenario{BaseRatePerS: rate, MaxRequests: 2000}
		k := 1 + pick(3)
		hot := pick(2 * k) // the phase that heats, when < k
		for i := 0; i < k; i++ {
			sc.Phases = append(sc.Phases, Phase{
				DurationS:   durS / float64(k),
				Shape:       []LoadShape{ShapeFlat, ShapeRamp, ShapeSine, ShapeDecay}[pick(4)],
				StartFactor: 0.5 + 1.5*rng.Float64(),
				EndFactor:   0.5 + 1.5*rng.Float64(),
			})
			if i == hot {
				sc.Phases[i].AmbientDeltaC = 5 + 10*rng.Float64()
			}
		}
		if pick(3) == 0 {
			big := 1 + pick(cfg.Nodes-1)
			sc.Classes = []NodeClass{{Name: "big", Count: big, SprintWidth: 32, BudgetScale: 2, DrainScale: 2},
				{Name: "small", Count: cfg.Nodes - big, NominalPowerW: 0.5, SprintWidth: 4 * pick(2)}}
		}
		if pick(2) == 0 {
			sc.Churn = Churn{MTBFS: durS / float64(2+pick(6)), MeanDowntimeS: durS / 20}
		}
		if cfg.Coordination != NoCoordination && pick(2) == 0 {
			sc.Churn.RackMTBFS, sc.Churn.RackMeanDowntimeS = durS/float64(1+pick(3)), durS/40
		}
		spec.Scenario = &sc
		if source == "scenario+workload" {
			spec.Workload = genWorkload(rng, rate, durS)
		}
	case "workload":
		spec.Workload = genWorkload(rng, rate, durS)
	case "replay":
		labeled, at := pick(2) == 0, 0.0
		for i := 0; i < arrivals; i++ {
			at += 2 * rng.Float64() / rate
			r := TraceRequest{ArrivalS: at, WorkS: 0.1 + 2*cfg.MeanWorkS*rng.Float64()}
			if labeled {
				tn := pick(3)
				r.Tenant, r.Class, r.Width = fmt.Sprintf("t%d", tn), []string{"gold", "bronze", "gold"}[tn], pick(5)
			}
			spec.Replay = append(spec.Replay, r)
		}
	}
	return row{name: fmt.Sprintf("%s/%s/%s", source, cfg.Policy, cfg.Coordination), spec: spec, oracles: allOracles}
}

// genWorkload draws one or two SLO classes (maybe with admission budgets
// and hedge overrides), one to three tenants splitting the rate across
// every arrival process and work distribution, maybe request widths, and
// a dequeue discipline.
func genWorkload(rng *rand.Rand, rate, durS float64) *WorkloadSpec {
	pick := rng.Intn
	w := &WorkloadSpec{Discipline: []string{"fifo", "priority", "sjf"}[pick(3)], DurationS: durS, MaxRequests: 2000}
	for i := range 1 + pick(2) {
		w.Classes = append(w.Classes, SLOClass{Name: fmt.Sprintf("c%d", i), Priority: i, TargetP99S: float64(pick(4)),
			AdmitRatePerS: 0.6 * rate * float64(pick(3)/2), HedgeDelayS: 0.5 * float64(pick(3)/2)})
	}
	n := 1 + pick(3)
	for i := range n {
		tn := TenantSpec{Name: fmt.Sprintf("t%d", i), Class: w.Classes[pick(len(w.Classes))].Name,
			Arrival: ArrivalSpec{Process: []string{"poisson", "gamma", "weibull"}[pick(3)], RatePerS: rate / float64(n)},
			Work:    WorkSpec{Dist: []string{"exp", "fixed", "lognormal", "pareto"}[pick(4)], MeanS: 1 + 2*rng.Float64()}}
		if tn.Arrival.Process != "poisson" {
			tn.Arrival.Shape = 0.5 + 2*rng.Float64()
		}
		switch tn.Work.Dist {
		case "lognormal":
			tn.Work.Sigma = 0.5 + rng.Float64()
		case "pareto":
			tn.Work.Alpha = 1.5 + 1.5*rng.Float64()
		}
		if pick(3) == 0 {
			tn.Width = &WidthSpec{Dist: "choice", Choices: []int{1, 2, 4}}
		}
		w.Tenants = append(w.Tenants, tn)
	}
	return w
}
