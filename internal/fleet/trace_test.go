package fleet

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"sprinting/internal/trace"
)

// traced turns the flight recorder on, at decisions level unless cfg
// already picks a level.
func traced(cfg Config) Config {
	if cfg.Trace.Level == trace.LevelOff {
		cfg.Trace.Level = trace.LevelDecisions
	}
	return cfg
}

func mustTraced(t *testing.T, cfg Config) (Metrics, *trace.Trace) {
	t.Helper()
	m, tr, err := Run(context.Background(), Spec{Config: traced(cfg)})
	if err != nil {
		t.Fatal(err)
	}
	return m, tr
}

func traceBytes(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := tr.WriteJSONL(&b); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	return b.Bytes()
}

// TestTraceShardedMatchesSequential extends the sharding contract to the
// flight recorder: the serialized JSONL trace — every decision, event,
// and timeline sample, in order — must be byte-identical at every worker
// count, across the same policy × coordination × shape matrix the
// Metrics contract test runs. A recorder makes the run coupled, so this
// pins that Workers is a no-op for traced runs and the record stream
// keeps the exact global event order.
func TestTraceShardedMatchesSequential(t *testing.T) {
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
				cfg := DefaultConfig(p)
				cfg.Nodes = 24
				cfg.Requests = 1500
				cfg.Seed = equivalenceSeeds[0]
				cfg.QueueCap = sh.queueCap
				cfg.ArrivalRatePerS = sh.overload * float64(cfg.Nodes) / cfg.MeanWorkS
				cfg.Coordination = c
				if c != NoCoordination {
					cfg.RackSize = 5 // ragged: 24 nodes → racks of 5,5,5,5,4
				}
				cfg.Trace = TraceConfig{Level: trace.LevelFull}
				seqM, seqTr := mustTraced(t, cfg)
				seqB := traceBytes(t, seqTr)
				for _, w := range workerCounts {
					cfg.Workers = w
					gotM, gotTr := mustTraced(t, cfg)
					if !reflect.DeepEqual(gotM, seqM) {
						t.Errorf("%s/%s/%s workers=%d traced Metrics diverged from sequential", sh.name, p, c, w)
						continue
					}
					if gotB := traceBytes(t, gotTr); !bytes.Equal(gotB, seqB) {
						t.Errorf("%s/%s/%s workers=%d trace bytes diverged from sequential (%d vs %d bytes)",
							sh.name, p, c, w, len(gotB), len(seqB))
					}
				}
			}
		}
	}
}

// TestTraceScenarioShardedMatchesSequential runs the same byte-identity
// contract through the dynamic engine: flash-crowd phases and failure
// churn annotate the trace (phase-start, node-fail/recover, redispatch
// decisions), and the bytes must still match at every worker count.
func TestTraceScenarioShardedMatchesSequential(t *testing.T) {
	for _, c := range []Coordination{NoCoordination, TokenPermit} {
		cfg, sc := flashCrowdChurn()
		cfg.Coordination = c
		if c != NoCoordination {
			cfg.RackSize = 5
		}
		cfg.Trace = TraceConfig{Level: trace.LevelDecisions}
		seqM, seqTr, err := Run(context.Background(), Spec{Config: traced(cfg), Scenario: &sc})
		if err != nil {
			t.Fatal(err)
		}
		seqB := traceBytes(t, seqTr)
		for _, w := range workerCounts {
			cfg.Workers = w
			gotM, gotTr, err := Run(context.Background(), Spec{Config: traced(cfg), Scenario: &sc})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotM, seqM) {
				t.Errorf("%s workers=%d traced scenario Metrics diverged", c, w)
			}
			if gotB := traceBytes(t, gotTr); !bytes.Equal(gotB, seqB) {
				t.Errorf("%s workers=%d scenario trace bytes diverged", c, w)
			}
		}
	}
}

// TestTracedMetricsUnchanged is the observation-only contract: attaching
// the recorder must not perturb the simulation — the traced run's
// Metrics equal the untraced run's exactly, for every policy and
// coordination, plain and scenario mode.
func TestTracedMetricsUnchanged(t *testing.T) {
	for _, p := range Policies() {
		for _, c := range append([]Coordination{NoCoordination}, Coordinations()...) {
			cfg := DefaultConfig(p)
			cfg.Nodes = 24
			cfg.Requests = 1200
			cfg.ArrivalRatePerS = 1.1 * float64(cfg.Nodes) / cfg.MeanWorkS
			cfg.Coordination = c
			if c != NoCoordination {
				cfg.RackSize = 6
			}
			plain := mustSimulate(t, cfg)
			cfg.Trace = TraceConfig{Level: trace.LevelFull, TopK: 5, WindowS: 2}
			traced, _ := mustTraced(t, cfg)
			if !reflect.DeepEqual(plain, traced) {
				t.Errorf("%s/%s: traced Metrics differ from untraced", p, c)
			}
		}
	}
	cfg, sc := flashCrowdChurn()
	plain := mustScenario(t, cfg, sc)
	got, _, err := Run(context.Background(), Spec{Config: traced(cfg), Scenario: &sc})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, got) {
		t.Error("scenario: traced Metrics differ from untraced")
	}
}

// TestTraceWorkloadProbesResolve records a hedged workload run under the
// priority discipline, whose dequeue cancels losing hedge copies from
// anywhere in the queue: the Metrics must equal the untraced run's, and
// without churn every counterfactual probe must resolve — each cancelled
// copy is a departure the probes count.
func TestTraceWorkloadProbesResolve(t *testing.T) {
	cfg, w := tenantWorkload()
	cfg.Policy = Hedged
	cfg.HedgeDelayS = 0.3
	plain := mustWorkload(t, cfg, w)
	got, tr, err := Run(context.Background(), Spec{Config: traced(cfg), Workload: &w})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, got) {
		t.Error("traced workload Metrics differ from untraced")
	}
	if got.CancelledCopies == 0 {
		t.Fatal("contrast config cancelled no copies; the test needs some")
	}
	for _, d := range tr.Decisions() {
		for _, a := range d.Alts {
			if a.HypoDoneS < 0 {
				t.Fatalf("decision at %g s: probe on node %d never resolved", d.AtS, a.Node)
			}
		}
	}
}

// TestTraceIgnoredWithoutTracedEntry pins the API contract the zero-cost
// guarantee rests on: the level is the only switch. At LevelOff the rest
// of Config.Trace is inert — Run builds no recorder and returns no
// recording — and at any level the Metrics stay the untraced run's.
func TestTraceIgnoredWithoutTracedEntry(t *testing.T) {
	cfg := DefaultConfig(LeastLoaded)
	cfg.Requests = 400
	base := mustSimulate(t, cfg)
	cfg.Trace = TraceConfig{TopK: 8, WindowS: 1}
	got, tr, err := Run(context.Background(), Spec{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if tr != nil {
		t.Error("Run recorded with Config.Trace.Level off")
	}
	if !reflect.DeepEqual(got, base) {
		t.Error("Config.Trace changed an untraced run's result")
	}
	cfg.Trace.Level = trace.LevelFull
	if got := mustSimulate(t, cfg); !reflect.DeepEqual(got, base) {
		t.Error("Config.Trace changed a traced run's Metrics")
	}
}

// TestTraceSchema checks the recorded stream's internal consistency on a
// coordinated sprint-aware run: decision coverage and key kinds, sample
// timeline arithmetic, counterfactual causality (no alternative resolves
// before its decision), and the regret identity.
func TestTraceSchema(t *testing.T) {
	cfg := DefaultConfig(SprintAware)
	cfg.Nodes = 20
	cfg.Requests = 2000
	cfg.ArrivalRatePerS = 1.3 * float64(cfg.Nodes) / cfg.MeanWorkS
	cfg.Coordination = Uncoordinated
	cfg.RackSize = 5
	cfg.Trace = TraceConfig{TopK: 3, WindowS: 4}
	m, tr := mustTraced(t, cfg)

	if tr.Meta.Policy != "sprint-aware" || tr.Meta.Nodes != 20 || tr.Meta.Racks != 4 ||
		tr.Meta.Level != "decisions" || tr.Meta.TopK != 3 || tr.Meta.WindowS != 4 {
		t.Fatalf("meta mangled: %+v", tr.Meta)
	}

	decs := tr.Decisions()
	if len(decs) != cfg.Requests {
		t.Fatalf("got %d decisions for %d arrivals", len(decs), cfg.Requests)
	}
	enq, drop := 0, 0
	for _, d := range decs {
		switch d.Outcome {
		case "enqueued":
			enq++
		case "dropped":
			drop++
		default:
			t.Fatalf("unknown outcome %q", d.Outcome)
		}
		if d.KeyKind != "budget" {
			t.Fatalf("sprint-aware decision carries key kind %q", d.KeyKind)
		}
		if len(d.Alts) > cfg.Trace.TopK {
			t.Fatalf("decision records %d alts, topk=%d", len(d.Alts), cfg.Trace.TopK)
		}
		for _, a := range d.Alts {
			if a.Node == d.Node {
				t.Fatal("chosen node recorded as its own alternative")
			}
			if a.HypoDoneS >= 0 && a.HypoDoneS < d.AtS {
				t.Fatalf("alternative resolved before its decision: hypo %g < at %g", a.HypoDoneS, d.AtS)
			}
		}
		if d.BestAlt >= 0 && d.DoneS >= 0 {
			if got := d.DoneS - d.BestAltDoneS; got != d.RegretS {
				t.Fatalf("regret identity broken: %g != %g", got, d.RegretS)
			}
		}
	}
	if drop != m.Dropped {
		t.Errorf("dropped decisions %d != Metrics.Dropped %d", drop, m.Dropped)
	}
	if enq+drop != m.Requests {
		t.Errorf("decision outcomes %d+%d don't cover %d requests", enq, drop, m.Requests)
	}

	samples := tr.Samples()
	if len(samples) == 0 {
		t.Fatal("no timeline samples")
	}
	done := 0
	for i, sm := range samples {
		done += sm.Completed
		if sm.EndS <= sm.StartS {
			t.Fatalf("sample %d window inverted: (%g, %g]", i, sm.StartS, sm.EndS)
		}
		if sm.InFlight < 0 || sm.Sprints < 0 {
			t.Fatalf("sample %d gauges negative: %+v", i, sm)
		}
		if len(sm.RackDrawW) != 4 || len(sm.RackBufferJ) != 4 {
			t.Fatalf("sample %d missing per-rack series: %+v", i, sm)
		}
		if sm.Completed == 0 && (sm.P50S != -1 || sm.P99S != -1) {
			t.Fatalf("sample %d: empty window carries quantiles", i)
		}
		if sm.Completed > 0 && sm.P99S < sm.P50S {
			t.Fatalf("sample %d: p99 %g < p50 %g", i, sm.P99S, sm.P50S)
		}
	}
	if done != m.Completed {
		t.Errorf("samples account for %d completions, Metrics.Completed=%d", done, m.Completed)
	}

	if evs := tr.Events("sprint-start"); len(evs) == 0 {
		t.Error("no sprint-start events on a sprinting fleet")
	}
	starts, ends := len(tr.Events("sprint-start")), len(tr.Events("sprint-end"))
	if starts != ends {
		t.Errorf("sprint start/end imbalance: %d vs %d", starts, ends)
	}
}

// TestTraceLevels separates the capture depths: decisions-level streams
// carry no per-request service events, full-level streams do, and the
// hedged policy's lifecycle events appear where they should.
func TestTraceLevels(t *testing.T) {
	cfg := DefaultConfig(Hedged)
	cfg.Nodes = 8
	cfg.Requests = 800
	cfg.ArrivalRatePerS = 1.4 * float64(cfg.Nodes) / cfg.MeanWorkS
	cfg.QueueCap = 4

	cfg.Trace = TraceConfig{Level: trace.LevelDecisions}
	m, tr := mustTraced(t, cfg)
	if n := len(tr.Events("service-start", "complete")); n != 0 {
		t.Fatalf("decisions level leaked %d full-level events", n)
	}
	hedges := 0
	for _, d := range tr.Decisions() {
		if d.Kind == "hedge" {
			hedges++
			if d.KeyKind != "drain" {
				t.Fatalf("hedged decision key kind %q", d.KeyKind)
			}
		}
	}
	if hedges != m.HedgesIssued {
		t.Errorf("hedge decisions %d != HedgesIssued %d", hedges, m.HedgesIssued)
	}
	if got := len(tr.Events("hedge-win")); got != m.HedgeWins {
		t.Errorf("hedge-win events %d != HedgeWins %d", got, m.HedgeWins)
	}
	if got := len(tr.Events("hedge-suppress")); got != m.HedgesSuppressed {
		t.Errorf("hedge-suppress events %d != HedgesSuppressed %d", got, m.HedgesSuppressed)
	}

	cfg.Trace.Level = trace.LevelFull
	m2, tr2 := mustTraced(t, cfg)
	if got := len(tr2.Events("complete")); got != m2.Completed {
		t.Errorf("full-level complete events %d != Completed %d", got, m2.Completed)
	}
	if got := len(tr2.Events("service-start")); got == 0 {
		t.Error("full level recorded no service starts")
	}
}

// TestTraceScenarioAnnotations checks the dynamic-run records: one
// phase-start per later phase, churn events matching the metrics, and
// timeline samples attributed to the phase active at their boundary.
func TestTraceScenarioAnnotations(t *testing.T) {
	cfg, sc := flashCrowdChurn()
	cfg.Trace = TraceConfig{WindowS: 10}
	m, tr, err := Run(context.Background(), Spec{Config: traced(cfg), Scenario: &sc})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(tr.Events("phase-start")); got != len(sc.Phases)-1 {
		t.Errorf("phase-start events %d, want %d", got, len(sc.Phases)-1)
	}
	for _, ev := range tr.Events("phase-start") {
		if ev.Name == "" {
			t.Error("phase-start event lost its phase name")
		}
	}
	if got := len(tr.Events("node-fail")); got != m.NodeFailures {
		t.Errorf("node-fail events %d != NodeFailures %d", got, m.NodeFailures)
	}
	if got := len(tr.Events("node-recover")); got != m.NodeRecoveries {
		t.Errorf("node-recover events %d != NodeRecoveries %d", got, m.NodeRecoveries)
	}
	redisp := 0
	phased := false
	for _, d := range tr.Decisions() {
		if d.Kind == "redispatch" {
			redisp++
		}
		if d.Phase > 0 {
			phased = true
		}
	}
	// Redispatch decisions cover both outcomes; Metrics.Redispatches only
	// counts the enqueued ones, so the records can't be fewer.
	if redisp < m.Redispatches {
		t.Errorf("redispatch decisions %d < Metrics.Redispatches %d", redisp, m.Redispatches)
	}
	for _, sm := range tr.Samples() {
		if sm.Phase < 0 || sm.Phase >= len(sc.Phases) {
			t.Fatalf("sample carries out-of-range phase %d", sm.Phase)
		}
		if sm.Phase > 0 {
			phased = true
		}
	}
	if !phased {
		t.Error("no record ever left phase 0 across a three-phase scenario")
	}
}

// TestTraceValidate covers the new Config surface's error handling.
func TestTraceValidate(t *testing.T) {
	bad := []Config{
		func() Config { c := DefaultConfig(RoundRobin); c.Trace.Level = trace.Level(9); return c }(),
		func() Config { c := DefaultConfig(RoundRobin); c.Trace.TopK = -1; return c }(),
		func() Config { c := DefaultConfig(RoundRobin); c.Trace.WindowS = -2; return c }(),
	}
	for i, cfg := range bad {
		if _, _, err := Run(context.Background(), Spec{Config: traced(cfg)}); err == nil {
			t.Errorf("bad trace config %d accepted", i)
		}
		if _, _, err := Run(context.Background(), Spec{Config: cfg}); err == nil {
			t.Errorf("bad trace config %d accepted as given", i)
		}
	}
}

// TestTraceRoundRobinKeys pins the state-blind policy's record shape:
// rotation key kind, the chosen node as the key, and no alternatives
// (round-robin rejects nothing on merit, so counterfactuals would be
// noise).
func TestTraceRoundRobinKeys(t *testing.T) {
	cfg := DefaultConfig(RoundRobin)
	cfg.Requests = 300
	_, tr := mustTraced(t, cfg)
	for _, d := range tr.Decisions() {
		if d.KeyKind != "rotation" {
			t.Fatalf("round-robin key kind %q", d.KeyKind)
		}
		if len(d.Alts) != 0 {
			t.Fatal("round-robin decision recorded alternatives")
		}
		if d.Node >= 0 && d.Key != float64(d.Node) {
			t.Fatalf("rotation key %g != chosen node %d", d.Key, d.Node)
		}
	}
}

// TestTraceJSONLWellFormed serializes a rack-coordinated probabilistic
// run — the config most likely to surface a non-finite float — and
// checks every line parses and no ±Inf/NaN leaked into the stream.
func TestTraceJSONLWellFormed(t *testing.T) {
	cfg := DefaultConfig(LeastLoaded)
	cfg.Nodes = 15
	cfg.Requests = 1000
	cfg.ArrivalRatePerS = 1.2 * float64(cfg.Nodes) / cfg.MeanWorkS
	cfg.Coordination = Probabilistic
	cfg.RackSize = 4
	cfg.Trace = TraceConfig{Level: trace.LevelFull, WindowS: 3}
	_, tr := mustTraced(t, cfg)
	b := traceBytes(t, tr)
	lines := bytes.Split(bytes.TrimRight(b, "\n"), []byte("\n"))
	if len(lines) != len(tr.Records)+1 {
		t.Fatalf("%d JSONL lines for %d records + meta", len(lines), len(tr.Records))
	}
	s := string(b)
	for _, bad := range []string{"Inf", "NaN"} {
		if strings.Contains(s, bad) {
			i := strings.Index(s, bad)
			lo := i - 80
			if lo < 0 {
				lo = 0
			}
			t.Fatalf("non-finite float leaked into JSONL near %q", s[lo:i+len(bad)])
		}
	}
	if !bytes.HasPrefix(b, []byte(`{"t":"meta"`)) {
		t.Fatalf("stream does not lead with the meta line: %s", lines[0][:40])
	}
}

// TestTraceCounterfactualIdleExact pins the probe semantics on the
// cleanest case there is: two idle nodes, one request. The rejected
// alternative is idle, so its counterfactual resolves immediately — and
// must equal the realized completion exactly, for zero regret (both
// nodes are identical).
func TestTraceCounterfactualIdleExact(t *testing.T) {
	cfg := DefaultConfig(SprintAware)
	cfg.Nodes = 2
	cfg.Requests = 1
	cfg.ArrivalRatePerS = 0.1
	_, tr := mustTraced(t, cfg)
	decs := tr.Decisions()
	if len(decs) != 1 {
		t.Fatalf("got %d decisions", len(decs))
	}
	d := decs[0]
	if len(d.Alts) != 1 {
		t.Fatalf("got %d alts on a 2-node fleet", len(d.Alts))
	}
	if d.DoneS < 0 || d.BestAlt < 0 {
		t.Fatalf("counterfactual unresolved: %+v", d.Decision)
	}
	if d.RegretS != 0 {
		t.Fatalf("identical idle twin should have zero regret, got %g (done %g, alt %g)",
			d.RegretS, d.DoneS, d.BestAltDoneS)
	}
	if fmt.Sprintf("%.9f", d.BestAltDoneS) != fmt.Sprintf("%.9f", d.DoneS) {
		t.Fatalf("alt completion %g != realized %g", d.BestAltDoneS, d.DoneS)
	}
}

// TestTracedAltsMatchReferenceScan is the alternatives lookup's
// cross-implementation suite: the recorder answers each decision's top-k
// rejected alternatives from the dispatch index, and the recording's
// JSONL bytes must equal those of a refDispatch run, which scores every
// node. The grid is TestIndexedDispatchMatchesReferenceScan's (every
// policy × coordination × seed, healthy and overloaded into tiny queues)
// with k varied by seed, plus a heterogeneous-class scenario (several
// index segments) and a run with reliability faults and node and rack
// failures, for every policy.
func TestTracedAltsMatchReferenceScan(t *testing.T) {
	if refDispatch {
		t.Fatal("refDispatch already set")
	}
	check := func(name string, spec Spec) {
		t.Helper()
		_, tr, err := Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		refDispatch = true
		_, refTr, err := Run(context.Background(), spec)
		refDispatch = false
		if err != nil {
			t.Fatal(err)
		}
		got, want := traceBytes(t, tr), traceBytes(t, refTr)
		if !bytes.Equal(got, want) {
			gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
			for i := 0; i < len(gl) && i < len(wl); i++ {
				if !bytes.Equal(gl[i], wl[i]) {
					t.Errorf("%s: recording diverged from the reference scan at line %d:\nindexed: %s\nref:     %s", name, i+1, gl[i], wl[i])
					return
				}
			}
			t.Errorf("%s: recording length %d lines, reference %d", name, len(gl), len(wl))
		}
	}
	shapes := []struct {
		name     string
		overload float64
		queueCap int
	}{
		{"healthy", 0.9, 256},
		{"overloaded", 1.6, 3},
	}
	seeds := []int64{1, 7, 42}
	topK := []int{3, 1, 6}
	for _, sh := range shapes {
		for _, p := range Policies() {
			for _, c := range append([]Coordination{NoCoordination}, Coordinations()...) {
				for si, seed := range seeds {
					cfg := DefaultConfig(p)
					cfg.Nodes = 24
					cfg.Requests = 1500
					cfg.Seed = seed
					cfg.QueueCap = sh.queueCap
					cfg.ArrivalRatePerS = sh.overload * float64(cfg.Nodes) / cfg.MeanWorkS
					cfg.Coordination = c
					cfg.Trace = TraceConfig{Level: trace.LevelDecisions, TopK: topK[si]}
					check(fmt.Sprintf("%s/%s/%s/seed=%d", sh.name, p, c, seed), Spec{Config: cfg})
				}
			}
		}
	}
	for _, p := range Policies() {
		cfg := DefaultConfig(p)
		cfg.Nodes = 16
		cfg.Seed = 3
		cfg.Coordination = TokenPermit
		cfg.RackSize = 4
		cfg.Trace = TraceConfig{Level: trace.LevelDecisions, TopK: 5}
		sc := Scenario{
			BaseRatePerS: 3,
			Phases: []Phase{
				{Name: "steady", DurationS: 120},
				{Name: "surge", DurationS: 60, StartFactor: 1.8},
			},
			Classes: []NodeClass{
				{Name: "big", Count: 4, SprintWidth: 32, BudgetScale: 2, DrainScale: 2},
				{Name: "small", Count: 9, NominalPowerW: 0.5},
				{Name: "tail", Count: 3, SprintWidth: 4},
			},
			Churn: Churn{MTBFS: 40, MeanDowntimeS: 5},
		}
		check(fmt.Sprintf("heterogeneous/%s", p), Spec{Config: cfg, Scenario: &sc})

		cfg, sc = relChurnScenario()
		cfg.Policy = p
		cfg.Trace = TraceConfig{Level: trace.LevelFull}
		check(fmt.Sprintf("reliability-churn/%s", p), Spec{Config: cfg, Scenario: &sc})

		// Dyadic arrivals and full-width service times: completions land
		// exactly on arrival instants, and an arrival fires before a
		// completion at the same instant, so busy nodes draining exactly
		// now tie with the idle set and must win on rotation distance.
		cfg = DefaultConfig(p)
		cfg.Nodes = 8
		cfg.QueueCap = 4
		cfg.Trace = TraceConfig{Level: trace.LevelDecisions, TopK: 4}
		rows := make([]TraceRequest, 1200)
		for i := range rows {
			m := 1 + (i*7+i/3)%8
			rows[i] = TraceRequest{ArrivalS: float64(i) / 8, WorkS: float64(m * cfg.SprintWidth / 8)}
		}
		check(fmt.Sprintf("coincident/%s", p), Spec{Config: cfg, Replay: rows})
	}
}

// TestTracedAltsLookupCost is the gate that fails if the alternatives
// lookup falls back to scoring the fleet: on a healthy-load 4096-node
// traced run it must score under 64 nodes per decision on average, for
// sprint-aware and least-loaded dispatch alike. The reference scan
// scores about 4096.
func TestTracedAltsLookupCost(t *testing.T) {
	for _, p := range []Policy{SprintAware, LeastLoaded} {
		cfg := DefaultConfig(p)
		cfg.Nodes = 4096
		cfg.Requests = 20000
		cfg.ArrivalRatePerS = 0.9 * float64(cfg.Nodes) / cfg.MeanWorkS
		cfg.Trace = TraceConfig{Level: trace.LevelDecisions}
		src, err := Spec{Config: cfg}.resolve()
		if err != nil {
			t.Fatal(err)
		}
		rec := newRecorder(src.cfg)
		_, err = newSim(src, rec).start(context.Background())
		putArena(src.reqs)
		if err != nil {
			t.Fatal(err)
		}
		if rec.altLookups == 0 {
			t.Fatalf("%s: no alternatives lookups ran", p)
		}
		if mean := float64(rec.altScored) / float64(rec.altLookups); mean >= 64 {
			t.Errorf("%s: the alternatives lookup scored %.1f nodes per decision (%d over %d lookups), want < 64",
				p, mean, rec.altScored, rec.altLookups)
		} else {
			t.Logf("%s: %.2f nodes scored per decision over %d lookups", p, mean, rec.altLookups)
		}
	}
}

// TestReadJSONLRoundTrip holds trace.ReadJSONL to its promise on real
// recordings: reading back a recording's JSONL yields a Trace deeply
// equal to the recorded one. The 1-node fleet records only decisions
// with no eligible alternative, whose Alts must stay nil (the JSONL
// omits an empty list, so the reader cannot tell it from nil).
func TestReadJSONLRoundTrip(t *testing.T) {
	single := DefaultConfig(SprintAware)
	single.Nodes = 1
	single.Requests = 400
	racked := DefaultConfig(SprintAware)
	racked.Nodes = 24
	racked.Requests = 1500
	racked.ArrivalRatePerS = 1.2 * float64(racked.Nodes) / racked.MeanWorkS
	racked.Coordination = TokenPermit
	racked.RackSize = 5
	racked.Trace = TraceConfig{Level: trace.LevelFull}
	hedged := DefaultConfig(Hedged)
	hedged.Nodes = 12
	hedged.Requests = 1500
	hedged.ArrivalRatePerS = 1.1 * float64(hedged.Nodes) / hedged.MeanWorkS
	for _, tc := range []struct {
		name string
		cfg  Config
	}{{"1-node", single}, {"24-node-racked-full", racked}, {"hedged", hedged}} {
		name := tc.name
		_, tr := mustTraced(t, tc.cfg)
		back, err := trace.ReadJSONL(bytes.NewReader(traceBytes(t, tr)))
		if err != nil {
			t.Fatalf("%s: ReadJSONL: %v", name, err)
		}
		if !reflect.DeepEqual(back, tr) {
			diff := 0
			for i := range tr.Records {
				if i < len(back.Records) && !reflect.DeepEqual(back.Records[i], tr.Records[i]) {
					diff++
				}
			}
			t.Errorf("%s: ReadJSONL(WriteJSONL(tr)) != tr (%d of %d records differ)", name, diff, len(tr.Records))
		}
	}
}
