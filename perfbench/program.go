package main

// Every call into program code lives in this file, so a change to the
// simulator's API is ported here and nowhere else. The rest of the
// harness sees only the job interface below, plain strings and numbers.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"time"

	"sprinting"
	"sprinting/internal/core"
	"sprinting/internal/engine"
	"sprinting/internal/governor"
	"sprinting/internal/series"
	"sprinting/internal/session"
	"sprinting/internal/workloads"
)

// width is the host's core count. GOMAXPROCS, shard workers and engine
// pools all use it, and no workload runs more simulation goroutines.
var width = runtime.NumCPU()

// job is one workload bound to one seed: run makes every program call of
// one iteration, check judges the outputs of the last iteration, and the
// counters read that iteration's returned structs.
type job interface {
	run(tr *tracer)
	check() []callResult
	counts() map[string]float64
	// arrivalStreams lists the plain open-loop arrival streams the
	// iteration's Simulate calls generate, so their generation can be
	// timed in isolation.
	arrivalStreams() []arrivalStream
}

// callResult is the verdict on one program call: canon is the canonical
// rendering of its output (digested against digests.json), err a call
// error or a broken invariant.
type callResult struct {
	id    string
	canon string
	err   error
}

func (c callResult) digest() string {
	sum := sha256.Sum256([]byte(c.canon))
	return hex.EncodeToString(sum[:8])
}

// arrivalStream is the argument list of one session.GenerateBursts call.
type arrivalStream struct {
	n                   int
	meanGapS, meanWorkS float64
	seed                int64
}

// scale shrinks every workload for the harness self-tests; 1 is the
// benchmark's size.
type scale float64

func (s scale) of(n int) int {
	v := int(float64(n) * float64(s))
	if v < 1 {
		return 1
	}
	return v
}

// newJob sets a workload up: it decodes specs from the checkout at root
// and builds every input from seed.
func newJob(name string, seed int64, root string, s scale) (job, error) {
	switch name {
	case "fleet_scale":
		return newFleetScale(seed, s), nil
	case "policy_sweep":
		return newPolicySweep(seed, root, s)
	case "record_replay":
		return newRecordReplay(seed, s), nil
	case "paper_cosim":
		return newPaperCosim(seed, s), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// fleetCall is one fleet simulation: its config, optional scenario and
// workload, and the metrics it returned.
type fleetCall struct {
	id  string
	cfg sprinting.FleetConfig
	sc  *sprinting.FleetScenario
	wl  *sprinting.FleetWorkload
	m   sprinting.FleetMetrics
	err error
}

func (c *fleetCall) simulate(ctx context.Context, tr *tracer, parent int32) {
	sp := tr.begin("fleet.simulate", parent)
	if c.sc != nil {
		c.m, c.err = sprinting.SimulateScenarioWorkloadContext(ctx,
			sprinting.ScenarioConfig{Fleet: c.cfg, Scenario: *c.sc}, *c.wl)
	} else {
		c.m, c.err = sprinting.SimulateFleetContext(ctx, c.cfg)
	}
	tr.end(sp)
}

func (c *fleetCall) result() callResult {
	if c.err != nil {
		return callResult{id: c.id, err: c.err}
	}
	r := callResult{id: c.id, canon: canonFleet(c.m), err: fleetInvariants(c.m)}
	if r.err == nil && c.sc == nil && c.m.Requests != c.cfg.Requests {
		r.err = fmt.Errorf("offered %d requests, config asked for %d", c.m.Requests, c.cfg.Requests)
	}
	return r
}

func (c *fleetCall) stream() arrivalStream {
	seed := c.cfg.Seed
	if seed == 0 {
		seed = sprinting.DefaultFleetConfig(c.cfg.Policy).Seed
	}
	return arrivalStream{
		n: c.cfg.Requests, meanGapS: 1 / c.cfg.EffectiveRatePerS(),
		meanWorkS: c.cfg.MeanWorkS, seed: seed,
	}
}

// fleetInvariants checks the conservation laws every fleet run obeys.
func fleetInvariants(m sprinting.FleetMetrics) error {
	if got := m.Completed + m.Dropped + m.TimedOut + m.Shed; got != m.Requests {
		return fmt.Errorf("completed+dropped+timed-out+shed = %d, want requests = %d", got, m.Requests)
	}
	drops, timeouts := 0, 0
	for _, n := range m.Nodes {
		drops += n.Dropped
		timeouts += n.TimedOut
	}
	if drops != m.Dropped {
		return fmt.Errorf("per-node drops sum to %d, fleet total %d", drops, m.Dropped)
	}
	if timeouts != m.TimedOut {
		return fmt.Errorf("per-node timeouts sum to %d, fleet total %d", timeouts, m.TimedOut)
	}
	return nil
}

// canonFleet renders the deterministic content of a fleet run field by
// field (floats in shortest round-trip form), so adding a field to
// Metrics leaves the digest of the existing ones unchanged.
func canonFleet(m sprinting.FleetMetrics) string {
	var b strings.Builder
	fmt.Fprintf(&b, "policy=%v coordination=%v requests=%d completed=%d dropped=%d timedout=%d shed=%d admissionshed=%d\n",
		m.Policy, m.Coordination, m.Requests, m.Completed, m.Dropped, m.TimedOut, m.Shed, m.AdmissionShed)
	fmt.Fprintf(&b, "retries=%d faults=%d wasted=%d hedges=%d wins=%d cancelled=%d suppressed=%d gray=%d\n",
		m.Retries, m.TransientFaults, m.WastedServices, m.HedgesIssued, m.HedgeWins, m.CancelledCopies, m.HedgesSuppressed, m.GrayNodes)
	fmt.Fprintf(&b, "sim=%v thr=%v good=%v amp=%v mean=%v p50=%v p95=%v p99=%v p999=%v max=%v approx=%v denial=%v\n",
		m.SimS, m.ThroughputRPS, m.GoodputRPS, m.RetryAmplification, m.MeanS, m.P50S, m.P95S, m.P99S, m.P999S, m.MaxS, m.ApproxQuantiles, m.SprintDenialRate)
	fmt.Fprintf(&b, "energy=%v mean=%v max=%v perreq=%v trips=%d throttled=%v permits=%d denied=%d rate=%v\n",
		m.TotalEnergyJ, m.MeanNodeEnergyJ, m.MaxNodeEnergyJ, m.EnergyPerRequestJ, m.BreakerTrips, m.RackThrottledS, m.PermitRequests, m.PermitDenials, m.PermitDenialRate)
	fmt.Fprintf(&b, "failures=%d recoveries=%d redispatches=%d rackfailures=%d jain=%v\n",
		m.NodeFailures, m.NodeRecoveries, m.Redispatches, m.RackFailures, m.JainFairness)
	for _, n := range m.Nodes {
		fmt.Fprintf(&b, "node %d served=%d denials=%d dropped=%d failures=%d timedout=%d retries=%d gray=%v rack=%d energy=%v busy=%v\n",
			n.ID, n.Served, n.Denials, n.Dropped, n.Failures, n.TimedOut, n.Retries, n.Gray, n.Rack, n.EnergyJ, n.BusyS)
	}
	for _, r := range m.Racks {
		fmt.Fprintf(&b, "rack %+v\n", r)
	}
	for _, p := range m.Phases {
		fmt.Fprintf(&b, "phase %+v\n", p)
	}
	for _, c := range m.Classes {
		fmt.Fprintf(&b, "class %+v\n", c)
	}
	for _, t := range m.Tenants {
		fmt.Fprintf(&b, "tenant %+v\n", t)
	}
	return b.String()
}

// fleetCounts sums the per-layer counters over fleet runs.
func fleetCounts(ms []sprinting.FleetMetrics) map[string]float64 {
	var req, svc, drop, permits, denied, trips, hedges, wins, retries, done float64
	for _, m := range ms {
		req += float64(m.Requests)
		drop += float64(m.Dropped)
		permits += float64(m.PermitRequests)
		denied += float64(m.PermitDenials)
		trips += float64(m.BreakerTrips)
		hedges += float64(m.HedgesIssued)
		wins += float64(m.HedgeWins)
		retries += float64(m.Retries)
		done += float64(m.Completed)
		for _, n := range m.Nodes {
			svc += float64(n.Served)
		}
	}
	return map[string]float64{
		"fleet.requests":                   req,
		"fleet.services":                   svc,
		"fleet.dropped":                    drop,
		"rack.permit_requests":             permits,
		"rack.permit_denial_rate":          ratio(denied, permits),
		"rack.breaker_trips":               trips,
		"fleet.hedges_issued":              hedges,
		"fleet.hedge_win_ratio":            ratio(wins, hedges),
		"reliability.retries":              retries,
		"reliability.useful_service_ratio": ratio(done, svc),
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// fleet_scale: one warehouse-scale run.

type fleetScale struct{ call fleetCall }

func newFleetScale(seed int64, s scale) *fleetScale {
	cfg := sprinting.DefaultFleetConfig(sprinting.FleetSprintAware)
	cfg.Nodes = s.of(10_000)
	cfg.Requests = s.of(1_000_000)
	cfg.Coordination = sprinting.RackTokenPermit
	cfg.RackSize = 16
	cfg.Workers = width
	cfg.Seed = seed
	return &fleetScale{call: fleetCall{id: "simulate", cfg: cfg}}
}

func (j *fleetScale) run(tr *tracer) {
	root := tr.begin("job", -1)
	j.call.simulate(context.Background(), tr, root)
	tr.end(root)
}

func (j *fleetScale) check() []callResult { return []callResult{j.call.result()} }

func (j *fleetScale) counts() map[string]float64 {
	return fleetCounts([]sprinting.FleetMetrics{j.call.m})
}

func (j *fleetScale) arrivalStreams() []arrivalStream { return []arrivalStream{j.call.stream()} }

// policy_sweep: many small independent runs on an engine pool.

type policySweep struct{ calls []*fleetCall }

func newPolicySweep(seed int64, root string, s scale) (*policySweep, error) {
	var sc sprinting.FleetScenario
	if err := decodeStrict(filepath.Join(root, "examples/scenarios/flashcrowd.json"), &sc); err != nil {
		return nil, err
	}
	var wl sprinting.FleetWorkload
	if err := decodeStrict(filepath.Join(root, "examples/workloads/tenants.json"), &wl); err != nil {
		return nil, err
	}
	coords := append([]sprinting.RackCoordination{sprinting.RackNoCoordination}, sprinting.RackCoordinations()...)
	j := &policySweep{}
	for _, p := range sprinting.FleetPolicies() {
		for _, c := range coords {
			for _, load := range []float64{0.7, 1.1} {
				cfg := sprinting.DefaultFleetConfig(p)
				cfg.Nodes = s.of(200)
				cfg.Requests = s.of(100_000)
				cfg.ArrivalRatePerS = load * float64(cfg.Nodes) / cfg.MeanWorkS
				cfg.Coordination = c
				cfg.RackSize = 16
				cfg.Seed = seed
				// Shard workers stay at 1: the pool already runs width
				// points at once.
				cfg.Workers = 1
				j.calls = append(j.calls, &fleetCall{id: fmt.Sprintf("%v/%v/load=%v", p, c, load), cfg: cfg})
			}
		}
	}
	for _, p := range sprinting.FleetPolicies() {
		cfg := sprinting.DefaultFleetConfig(p)
		cfg.Seed = seed
		cfg.Workers = 1
		j.calls = append(j.calls, &fleetCall{id: fmt.Sprintf("%v/flashcrowd+tenants", p), cfg: cfg, sc: &sc, wl: &wl})
	}
	return j, nil
}

func decodeStrict(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func (j *policySweep) run(tr *tracer) {
	root := tr.begin("job", -1)
	pool := tr.begin("engine.map", root)
	// Every point stores its own outcome; the pool's joined error adds
	// nothing the per-call errors do not already carry.
	_, _ = engine.Map(context.Background(), j.calls, func(ctx context.Context, c *fleetCall) (struct{}, error) {
		pt := tr.begin("engine.point", pool)
		c.simulate(ctx, tr, pt)
		tr.end(pt)
		return struct{}{}, nil
	}, engine.Options{Workers: width})
	tr.end(pool)
	tr.end(root)
}

func (j *policySweep) check() []callResult {
	out := make([]callResult, len(j.calls))
	for i, c := range j.calls {
		out[i] = c.result()
	}
	return out
}

func (j *policySweep) counts() map[string]float64 {
	ms := make([]sprinting.FleetMetrics, len(j.calls))
	for i, c := range j.calls {
		ms[i] = c.m
	}
	cs := fleetCounts(ms)
	cs["engine.points"] = float64(len(j.calls))
	return cs
}

func (j *policySweep) arrivalStreams() []arrivalStream {
	var out []arrivalStream
	for _, c := range j.calls {
		if c.sc == nil {
			out = append(out, c.stream())
		}
	}
	return out
}

// record_replay: untraced run, traced run, JSONL round trip, replay.

type recordReplay struct {
	plain, traced fleetCall
	rec           *sprinting.FleetTrace
	jsonl         bytes.Buffer
	rows          []sprinting.TraceRequest
	replay        sprinting.FleetMetrics
	recErr        error
	replayErr     error
}

func newRecordReplay(seed int64, s scale) *recordReplay {
	cfg := sprinting.DefaultFleetConfig(sprinting.FleetSprintAware)
	cfg.Nodes = s.of(1000)
	// A fifth of the recorder benchmark's 100k requests: a full-level
	// recording of 100k requests takes 8 s and 0.8 GB per iteration here.
	cfg.Requests = s.of(20_000)
	cfg.Coordination = sprinting.RackTokenPermit
	cfg.RackSize = 16
	cfg.Workers = width
	cfg.Seed = seed
	rate := cfg.EffectiveRatePerS()
	cfg.Reliability = sprinting.FleetReliability{
		TimeoutS:        5,
		MaxRetries:      3,
		RetryBackoffS:   0.1,
		RetryBudgetPerS: 0.1 * rate,
		RetryBurst:      32,
		GrayFrac:        0.1,
		GraySlowdownX:   6,
		FaultProb:       0.01,
	}
	cfg.Trace = sprinting.TraceConfig{Level: sprinting.TraceFull, TopK: 3, WindowS: 5}
	return &recordReplay{
		plain:  fleetCall{id: "simulate", cfg: cfg},
		traced: fleetCall{id: "simulate_traced", cfg: cfg},
	}
}

func (j *recordReplay) run(tr *tracer) {
	ctx := context.Background()
	root := tr.begin("job", -1)
	j.plain.simulate(ctx, tr, root)

	sp := tr.begin("fleet.traced_simulate", root)
	j.traced.m, j.rec, j.traced.err = sprinting.SimulateFleetTracedContext(ctx, j.traced.cfg)
	tr.end(sp)

	j.jsonl.Reset()
	j.rows, j.replay, j.recErr, j.replayErr = nil, sprinting.FleetMetrics{}, nil, nil
	if j.traced.err == nil {
		sp = tr.begin("trace.write", root)
		j.recErr = j.rec.WriteJSONL(&j.jsonl)
		tr.end(sp)
	}
	var back *sprinting.FleetTrace
	if j.traced.err == nil && j.recErr == nil {
		sp = tr.begin("trace.read", root)
		back, j.recErr = sprinting.ReadFleetTrace(bytes.NewReader(j.jsonl.Bytes()))
		tr.end(sp)
	}
	if back != nil {
		sp = tr.begin("fleet.convert", root)
		j.rows, j.recErr = sprinting.ReplayFromRecording(back)
		tr.end(sp)
	}
	if j.rows != nil {
		sp = tr.begin("fleet.replay", root)
		j.replay, j.replayErr = sprinting.SimulateReplayContext(ctx, j.plain.cfg, j.rows, nil)
		tr.end(sp)
	}
	tr.end(root)
}

func (j *recordReplay) check() []callResult {
	plain := j.plain.result()
	traced := j.traced.result()
	if traced.err == nil && !reflect.DeepEqual(j.traced.m, j.plain.m) {
		traced.err = fmt.Errorf("traced metrics differ from the untraced run")
	}
	recording := callResult{id: "recording", err: j.recErr}
	if j.recErr == nil {
		if j.rows == nil {
			recording.err = fmt.Errorf("no recording (traced run failed)")
		} else {
			recording.canon = j.jsonl.String()
		}
	}
	replay := callResult{id: "replay", err: j.replayErr}
	switch {
	case j.rows == nil:
		replay.err = fmt.Errorf("nothing to replay")
	case j.replayErr == nil:
		replay.canon = canonFleet(j.replay)
		if !reflect.DeepEqual(j.replay, j.plain.m) {
			replay.err = fmt.Errorf("replayed metrics differ from the recorded run")
		}
	}
	return []callResult{plain, traced, recording, replay}
}

func (j *recordReplay) counts() map[string]float64 {
	cs := fleetCounts([]sprinting.FleetMetrics{j.plain.m})
	if j.rec != nil {
		cs["trace.records"] = float64(len(j.rec.Records))
	}
	cs["trace.bytes"] = float64(j.jsonl.Len())
	return cs
}

func (j *recordReplay) arrivalStreams() []arrivalStream {
	return []arrivalStream{j.plain.stream(), j.traced.stream()}
}

// paper_cosim: the Figure 7 column set on an engine pool.

type cosimPoint struct {
	kernel string
	policy sprinting.Policy
	params workloads.Params
	cfg    core.Config

	res core.Result
	err error
}

type paperCosim struct{ points []*cosimPoint }

func newPaperCosim(seed int64, s scale) *paperCosim {
	j := &paperCosim{}
	for _, k := range sprinting.Kernels() {
		for _, p := range []sprinting.Policy{sprinting.Sustained, sprinting.ParallelSprint, sprinting.DVFSSprint} {
			j.points = append(j.points, &cosimPoint{
				kernel: k.Name,
				policy: p,
				params: workloads.Params{Size: sprinting.SizeA, Scale: float64(s), Shards: 64, Seed: seed},
				cfg:    sprinting.DefaultConfig(p),
			})
		}
	}
	return j
}

// run makes RunKernel's three steps itself, so the seed reaches the
// kernel inputs and each step gets its own span.
func (j *paperCosim) run(tr *tracer) {
	root := tr.begin("job", -1)
	pool := tr.begin("engine.map", root)
	_, _ = engine.Map(context.Background(), j.points, func(_ context.Context, p *cosimPoint) (struct{}, error) {
		pt := tr.begin("engine.point", pool)
		p.res, p.err = core.Result{}, nil
		k, err := workloads.ByName(p.kernel)
		if err != nil {
			p.err = err
			tr.end(pt)
			return struct{}{}, nil
		}
		sp := tr.begin("workloads.build", pt)
		inst := k.Build(p.params)
		tr.end(sp)
		sp = tr.begin("core.run", pt)
		p.res, p.err = core.Run(inst.Program, p.cfg)
		tr.end(sp)
		if p.err == nil {
			sp = tr.begin("workloads.verify", pt)
			if err := inst.Verify(); err != nil {
				p.err = fmt.Errorf("kernel output verification failed: %w", err)
			}
			tr.end(sp)
		}
		tr.end(pt)
		return struct{}{}, nil
	}, engine.Options{Workers: width})
	tr.end(pool)
	tr.end(root)
}

func (j *paperCosim) check() []callResult {
	out := make([]callResult, len(j.points))
	for i, p := range j.points {
		out[i] = callResult{id: fmt.Sprintf("%s/%v", p.kernel, p.policy), err: p.err}
		if p.err == nil {
			out[i].canon = canonKernel(p.res)
		}
	}
	return out
}

func canonKernel(r core.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "policy=%v elapsed=%v energy=%v exhausted=%v end=%v migrated=%v throttled=%v peak=%v melt=%v\n",
		r.Policy, r.ElapsedS, r.EnergyJ, r.SprintExhausted, r.SprintEndS, r.Migrated, r.Throttled, r.PeakJunctionC, r.MeltFraction)
	m := r.Machine
	fmt.Fprintf(&b, "ps=%d energy=%v samples=%d migrated=%v at=%d throttled=%v stopped=%v mem=%+v\n",
		m.ElapsedPs, m.EnergyJ, m.Samples, m.Migrated, m.MigratePs, m.Throttled, m.Stopped, m.Mem)
	for i, c := range m.PerCore {
		fmt.Fprintf(&b, "core %d %+v\n", i, c)
	}
	return b.String()
}

func (j *paperCosim) counts() map[string]float64 {
	var ops, l1h, l1m, llch, llcm float64
	for _, p := range j.points {
		m := p.res.Machine
		for _, c := range m.PerCore {
			ops += float64(c.ComputeOps + c.Loads + c.Stores)
		}
		l1h += float64(m.Mem.L1Hits)
		l1m += float64(m.Mem.L1Misses)
		llch += float64(m.Mem.LLCHits)
		llcm += float64(m.Mem.LLCMisses)
	}
	return map[string]float64{
		"engine.points":     float64(len(j.points)),
		"archsim.minstr":    ops / 1e6,
		"mem.l1_miss_rate":  ratio(l1m, l1h+l1m),
		"mem.llc_miss_rate": ratio(llcm, llch+llcm),
	}
}

func (j *paperCosim) arrivalStreams() []arrivalStream { return nil }

// Isolated timings of the calls the fleet makes per request.

// timeGenerate times session.GenerateBursts for each stream and returns
// the summed host seconds.
func timeGenerate(streams []arrivalStream) float64 {
	t := time.Now()
	for _, st := range streams {
		session.GenerateBursts(st.n, st.meanGapS, st.meanWorkS, st.seed)
	}
	return time.Since(t).Seconds()
}

// serveNs times, per service, the governor calls the fleet makes when a
// node starts a service: idle over the gap, then sprint while the
// budget lasts and finish at nominal.
func serveNs(n int, seed int64) float64 {
	cfg := governor.DefaultConfig()
	rng := rand.New(rand.NewSource(seed))
	gaps, works := make([]float64, n), make([]float64, n)
	for i := range gaps {
		gaps[i] = rng.ExpFloat64() * 0.5
		works[i] = rng.ExpFloat64() * 2
	}
	g := governor.New(cfg)
	const sprintWidth = 16.0
	t := time.Now()
	for i := 0; i < n; i++ {
		if gap := gaps[i]; gap > 0 {
			g.Idle(gap)
		}
		remaining := works[i]
		for remaining > 1e-12 {
			maxFullS := g.MaxSprintS(cfg.SprintPowerW)
			switch {
			case maxFullS*sprintWidth >= remaining:
				g.RecordSprint(cfg.SprintPowerW, remaining/sprintWidth)
				remaining = 0
			case maxFullS > 1e-9:
				g.RecordSprint(cfg.SprintPowerW, maxFullS)
				remaining -= maxFullS * sprintWidth
			default:
				g.Idle(remaining)
				remaining = 0
			}
		}
	}
	return float64(time.Since(t).Nanoseconds()) / float64(n)
}

// observeNs times the streaming latency histogram's Observe, the call
// the fleet makes per completed request above the exact-quantile cutoff.
func observeNs(n int, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	lat := make([]float64, n)
	for i := range lat {
		lat[i] = 0.1 + rng.ExpFloat64()*2
	}
	h := series.NewHistogram()
	t := time.Now()
	for _, v := range lat {
		h.Observe(v)
	}
	return float64(time.Since(t).Nanoseconds()) / float64(n)
}
