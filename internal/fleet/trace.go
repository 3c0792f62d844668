// The flight recorder: when Run is given a Config.Trace level other than
// off, a recorder hangs off the sim and captures every dispatch decision (chosen node, the key
// that won, the top-k rejected alternatives), the lifecycle events
// around it, and a rolling timeline of fleet state — then resolves
// counterfactual probes against each alternative's realized future and
// emits per-decision regret.
//
// Three invariants shape the implementation:
//
//   - Zero cost when off. The recorder is a nil pointer on the sim;
//     every hook is a nil check on the hot path, so an untraced run
//     never allocates or branches further for it
//     (TestSimulateSteadyStateAllocations pins this).
//
//   - Byte-identical at any worker count. A recorder runs the single
//     loop (parallelOK returns false), which fires events in the exact
//     global (time, seq) order; the recorder appends in handler order,
//     so the resulting Trace — and its JSONL bytes — are identical at
//     every Workers value (TestTraceShardedMatchesSequential).
//
//   - Observation only. Every hook reads simulation state and writes
//     recorder state, never the reverse: the alternatives lookup reads
//     the dispatch index in O(k log N) typical time (refDispatch runs
//     scan every node instead) without changing a key or advancing the
//     rotation counter, probes watch departures without touching
//     queues, and timeline samples project rack buffers to the window
//     boundary without accruing them — so a traced run's Metrics equal
//     the untraced run's exactly (TestTracedMetricsUnchanged).
//
// The counterfactual model: for each recorded alternative the probe
// counts the copies outstanding on that node at decision time. Service
// is FIFO and non-preemptive, so exactly those copies depart (complete
// or cancel) before a hypothetically enqueued copy would have started;
// when the count hits zero the probe resolves at that instant against
// the node's realized governor state using the same governed service
// estimate sprint-aware dispatch scores with (estFinishAt). Rack
// admission is not simulated for the hypothetical copy — like the
// dispatch estimator, the probe answers "when would this node's thermal
// trajectory have finished the work", given everything that actually
// happened to the node. A probe whose node fails first stays unresolved.
package fleet

import (
	"math"
	"sort"

	"sprinting/internal/series"
	"sprinting/internal/trace"
)

// TraceConfig configures the flight recorder. The zero value (LevelOff)
// disables it; any other level makes Run record.
type TraceConfig struct {
	// Level selects the capture depth: off, decisions, or full (see
	// trace.Level).
	Level trace.Level
	// TopK is how many rejected alternatives each decision records and
	// probes (0 selects 3).
	TopK int
	// WindowS is the timeline sample window in simulated seconds
	// (0 selects 5).
	WindowS float64
}

// withDefaults resolves the recorder knobs.
func (tc TraceConfig) withDefaults() TraceConfig {
	if tc.TopK == 0 {
		tc.TopK = 3
	}
	if tc.WindowS == 0 {
		tc.WindowS = 5
	}
	return tc
}

// cfProbe is one pending counterfactual: alternative alt of the decision
// at record index rec resolves once pending departures have left node.
type cfProbe struct {
	rec     int32
	alt     int32
	node    int32
	pending int32
	workS   float64
}

// sprintPhase is one active sprint phase on the recorder's concurrency
// heap, ordered by end time.
type sprintPhase struct {
	endS float64
	node int32
}

// recorder is the live flight-recorder state hanging off a sim. It is
// nil when tracing is off; every hook in the simulator is guarded by
// that nil check and nothing else.
type recorder struct {
	cfg TraceConfig
	tr  *trace.Trace
	seq uint64

	// Counterfactual probes: probes is the arena, watch[node] the indices
	// of probes waiting on that node's departures.
	probes []cfProbe
	watch  [][]int32

	// Timeline state: the next window boundary, completions and
	// latencies observed since the last one, the in-flight request
	// count, and the min-heap of active sprint phases by end time.
	winStartS float64
	nextS     float64
	winDone   int
	winLat    []float64
	inflight  int
	sprints   []sprintPhase

	// altScratch is the k-best alternatives buffer, reused across
	// decisions. altLookups counts alternatives lookups and altScored the
	// nodes they scored — the indexed lookup's cost, which a test gates.
	altScratch []altCand
	altLookups int
	altScored  int
}

// altCand is one alternative: the node, its recorded score, and its
// rotation distance from the selection's start.
type altCand struct {
	node int32
	key  float64
	rot  int32
}

// newRecorder builds the recorder from the Config's trace knobs. The
// fleet-shaped state waits for begin — scenario mode finalizes the node
// count after this point.
func newRecorder(cfg Config) *recorder {
	tc := cfg.Trace.withDefaults()
	return &recorder{
		cfg:   tc,
		tr:    &trace.Trace{},
		nextS: tc.WindowS,
	}
}

// begin stamps the trace header and sizes the per-node probe watch
// lists; newSim calls it once the fleet exists.
func (rec *recorder) begin(s *sim) {
	rec.watch = make([][]int32, len(s.nodes))
	rec.tr.Meta = trace.Meta{
		Policy:       s.cfg.Policy.String(),
		Coordination: s.cfg.Coordination.String(),
		Nodes:        len(s.nodes),
		Racks:        len(s.racks),
		Requests:     s.cfg.Requests,
		Seed:         s.cfg.Seed,
		Level:        rec.cfg.Level.String(),
		WindowS:      rec.cfg.WindowS,
		TopK:         rec.cfg.TopK,
	}
}

// emit appends one record, stamping time and sequence.
func (rec *recorder) emit(atS float64, r trace.Record) int {
	r.AtS = atS
	r.Seq = rec.seq
	rec.seq++
	rec.tr.Records = append(rec.tr.Records, r)
	return len(rec.tr.Records) - 1
}

// event appends a lifecycle event at the current instant.
func (rec *recorder) event(s *sim, ev trace.Event) {
	rec.emit(s.nowS, trace.Record{T: "event", Event: &ev})
}

// keyKind names the routing key family the policy scores with.
func keyKind(p Policy) string {
	switch p {
	case SprintAware:
		return "budget"
	case RoundRobin:
		return "rotation"
	default:
		return "drain"
	}
}

// score is the canonical routing key of a node for the configured
// policy, with the idle drain key's −Inf sanitized to now (an idle
// backlog drains immediately) so every recorded key is JSON-safe.
func (rec *recorder) score(s *sim, n *node, workS float64) float64 {
	if s.cfg.Policy == SprintAware {
		return s.estFinishAt(n, workS)
	}
	if k := n.drainKey(); !math.IsInf(k, -1) {
		return k
	}
	return s.nowS
}

// decision records one dispatch decision — a fresh arrival, a hedge
// duplication, or a churn failover — with the winning key and the top-k
// rejected alternatives, and plants a counterfactual probe per
// alternative. chosen is nil on an unattributable drop; start is the
// rotation counter value the selection ran with (the alternatives
// tie-break on distance from it, exactly like the selector); exclude
// mirrors the selection's exclusion (hedging never duplicates onto the
// original node).
func (rec *recorder) decision(s *sim, ri int32, kind string, chosen *node, start, exclude int, enqueued bool) {
	r := &s.reqs[ri]
	d := &trace.Decision{
		Kind:    kind,
		Req:     int(ri),
		Phase:   int(r.phase),
		Node:    -1,
		Outcome: "dropped",
		KeyKind: keyKind(s.cfg.Policy),
		WorkS:   r.workS,
		DoneS:   -1,
		BestAlt: -1,
	}
	if chosen != nil {
		d.Node = chosen.id
		if s.cfg.Policy == RoundRobin {
			d.Key = float64(chosen.id)
		} else {
			d.Key = rec.score(s, chosen, r.workS)
		}
	}
	if enqueued {
		d.Outcome = "enqueued"
		if kind == "dispatch" {
			// A hedge or redispatch places a copy of a request that is
			// already counted in flight.
			rec.inflight++
		}
	}
	idx := rec.emit(s.nowS, trace.Record{T: "decision", Decision: d})
	if s.cfg.Policy != RoundRobin && chosen != nil {
		rec.collectAlts(s, d, idx, r.workS, chosen.id, exclude, start)
	}
}

// collectAlts finds the top-k rejected alternatives under the candidate
// order (score, rotation distance from start) — the same total order the
// selector minimizes, skipping the chosen node, the excluded one, and
// every dead or full node — and plants a counterfactual probe on each:
// pending counts the copies outstanding on the alternative at decision
// time, exactly the departures that FIFO service retires before a
// hypothetical copy would have started. The lookup reads the dispatch-
// index segments (indexAlts); refDispatch runs, which build none, take
// the O(N) reference scan (scanAlts). A decision with no eligible
// alternative keeps Alts nil, which is what the JSONL reader returns.
func (rec *recorder) collectAlts(s *sim, d *trace.Decision, idx int, workS float64, chosen, exclude, start int) {
	rot := start % len(s.nodes)
	rec.altScratch = rec.altScratch[:0]
	rec.altLookups++
	if s.segs == nil {
		rec.scanAlts(s, workS, chosen, exclude, rot)
	} else {
		for si := range s.segs {
			rec.indexAlts(s, &s.segs[si], workS, chosen, exclude, rot)
		}
	}
	k := len(rec.altScratch)
	if k == 0 {
		return
	}
	d.Alts = make([]trace.Alt, k)
	for ai, c := range rec.altScratch {
		d.Alts[ai] = trace.Alt{Node: int(c.node), Key: c.key, HypoDoneS: -1}
		n := &s.nodes[c.node]
		pending := n.outstanding()
		if pending == 0 {
			// The alternative is idle: the hypothetical copy would have
			// started service at the decision instant.
			d.Alts[ai].HypoDoneS = s.estFinishAt(n, workS)
			continue
		}
		rec.probes = append(rec.probes, cfProbe{
			rec: int32(idx), alt: int32(ai), node: c.node,
			pending: int32(pending), workS: workS,
		})
		rec.watch[c.node] = append(rec.watch[c.node], int32(len(rec.probes)-1))
	}
}

// cand scores node id as an alternative and counts it in altScored.
func (rec *recorder) cand(s *sim, id int, workS float64, rot int) altCand {
	rec.altScored++
	rd := id - rot
	if rd < 0 {
		rd += len(s.nodes)
	}
	return altCand{node: int32(id), key: rec.score(s, &s.nodes[id], workS), rot: int32(rd)}
}

// altLess is the candidate order: score, then rotation distance. It is
// strict — rotation distance is distinct per node.
func altLess(a, b altCand) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.rot < b.rot
}

// offer inserts c into the sorted k-best buffer and reports whether it
// made the cut. Top-k by insertion: k is tiny, so keeping the k best in
// a sorted prefix beats sorting every candidate.
func (rec *recorder) offer(c altCand) bool {
	cands, k := rec.altScratch, rec.cfg.TopK
	if len(cands) == k && !altLess(c, cands[k-1]) {
		return false
	}
	pos := len(cands)
	if pos < k {
		cands = append(cands, c)
	} else {
		pos--
	}
	for pos > 0 && altLess(c, cands[pos-1]) {
		cands[pos] = cands[pos-1]
		pos--
	}
	cands[pos] = c
	rec.altScratch = cands
	return true
}

// beaten reports whether a candidate scoring sc — or scoring at least sc,
// when sc is a lower bound — can no longer enter the full buffer. Equal
// scores stay in play: they can still win on rotation distance.
func (rec *recorder) beaten(sc float64) bool {
	k := rec.cfg.TopK
	return len(rec.altScratch) == k && sc > rec.altScratch[k-1].key
}

// scanAlts is the O(N) reference lookup: score every eligible node.
func (rec *recorder) scanAlts(s *sim, workS float64, chosen, exclude, rot int) {
	for i := range s.nodes {
		n := &s.nodes[i]
		if n.id == chosen || n.id == exclude || !n.alive || n.outstanding() >= s.cl(n).queueCap {
			continue
		}
		rec.offer(rec.cand(s, i, workS, rot))
	}
}

// indexAlts merges one dispatch-index segment's best alternatives into
// the buffer in O(k log N) typical time. The index's full flag is the
// scan's eligibility filter, so only present leaves are candidates.
//
// Every segment has a tie set — nodes that all score the class's least
// possible score, ordered among themselves by rotation alone — walked in
// rotation order first (tieWalk). Least-loaded and hedged ties are the
// idle nodes (drain key −Inf, scored as now) plus any busy node whose
// backlog drains exactly now; a busy node never drains earlier, because
// its completion event is still pending. Sprint-aware ties are the idle
// nodes whose projected budget covers the request at full width — the
// threshold sprintAwareMin resolves its idle champion with, or every
// idle node when the class's sprints are free (netW ≤ 0) or widthless.
// Once the walk fills the buffer or is outbid, nothing outside the tie
// set can enter: everything else scores strictly worse. Otherwise the
// tie set is small and the frontier search continues past it.
func (rec *recorder) indexAlts(s *sim, sg *dspSeg, workS float64, chosen, exclude, rot int) {
	if sg.idx != nil {
		if rec.tieWalk(s, sg, sg.idx, s.nowS, workS, chosen, exclude, rot) {
			rec.frontierAlts(s, sg, sg.idx, false, s.nowS, workS, chosen, exclude, rot)
		}
		return
	}
	cl := &s.classes[sg.class]
	thresh := math.Inf(1)
	if cl.netW > 0 && cl.width > 1 {
		needJ := math.Min(cl.netW*workS/cl.width, cl.capJ)
		thresh = -needJ
		if cl.drainW > 0 {
			thresh = s.nowS - needJ/cl.drainW
		}
	}
	if rec.tieWalk(s, sg, sg.idleIdx, thresh, workS, chosen, exclude, rot) {
		rec.frontierAlts(s, sg, sg.idleIdx, true, thresh, workS, chosen, exclude, rot)
	}
	rec.frontierAlts(s, sg, sg.busyIdx, false, math.Inf(-1), workS, chosen, exclude, rot)
}

// tieWalk offers the segment tree's leaves keyed at or below thresh in
// global rotation order from rot — the segment's suffix from rot, then
// its prefix, when it holds rot — with one firstLERange descent per leaf.
// Rotation distance grows along the walk and tie scores are equal, so it
// stops at the first candidate the buffer rejects or after k accepted
// ones. It reports whether it visited the whole tie set.
func (rec *recorder) tieWalk(s *sim, sg *dspSeg, t *dispatchIndex, thresh, workS float64, chosen, exclude, rot int) bool {
	lrot := 0
	if rot >= sg.lo && rot < sg.hi {
		lrot = rot - sg.lo
	}
	taken := 0
	lo, hi := lrot, t.n
	for pass := 0; pass < 2; pass++ {
		for lo < hi {
			i := t.firstLERange(1, 0, t.size, lo, hi, thresh)
			if i < 0 {
				break
			}
			lo = i + 1
			id := sg.lo + i
			if id == chosen || id == exclude {
				continue
			}
			if !rec.offer(rec.cand(s, id, workS, rot)) {
				return false
			}
			if taken++; taken == rec.cfg.TopK {
				return false
			}
		}
		lo, hi = 0, lrot
	}
	return true
}

// frontierAlts continues past an exhausted tie set (leaves keyed at or
// below skip, already offered) with the best-first frontier over the
// tree, reusing its scratch. On a drain-keyed tree key + work/width
// (work/width is 0 under least-loaded, whose score is the key) bounds a
// subtree's scores from below, so the search ends once the bound is
// strictly above the k-th score. On the sprint-aware idle tree the score
// is non-decreasing in tKey — the order the frontier pops leaves in —
// so it ends at the first leaf that scores strictly worse.
func (rec *recorder) frontierAlts(s *sim, sg *dspSeg, t *dispatchIndex, idle bool, skip, workS float64, chosen, exclude, rot int) {
	wow := 0.0
	if s.cfg.Policy == SprintAware {
		wow = workS / s.classes[sg.class].width
	}
	t.resetFrontier()
	for len(t.scratch) > 0 {
		e := t.fpop()
		if !idle && rec.beaten(e.d+wow) {
			return
		}
		if int(e.idx) < t.size {
			for c := 2 * e.idx; c <= 2*e.idx+1; c++ {
				if !t.full[c] {
					t.fpush(idxEnt{d: t.d[c], idx: c})
				}
			}
			continue
		}
		id := sg.lo + int(e.idx) - t.size
		if e.d <= skip || id == chosen || id == exclude {
			continue
		}
		c := rec.cand(s, id, workS, rot)
		if idle && rec.beaten(c.key) {
			return
		}
		rec.offer(c)
	}
}

// departed notes one copy leaving the node (service completion or lazy
// queue cancellation, both in FIFO order) and resolves every probe whose
// pending count hits zero: the hypothetical copy would start service now,
// on the node's realized governor state — the caller guarantees the node
// is between services at this instant, before any later copy consumes
// budget.
func (rec *recorder) departed(s *sim, n *node) {
	w := rec.watch[n.id]
	if len(w) == 0 {
		return
	}
	kept := w[:0]
	for _, pi := range w {
		p := &rec.probes[pi]
		p.pending--
		if p.pending > 0 {
			kept = append(kept, pi)
			continue
		}
		rec.tr.Records[p.rec].Decision.Alts[p.alt].HypoDoneS = s.estFinishAt(n, p.workS)
	}
	rec.watch[n.id] = kept
}

// nodeDown aborts every probe watching a failed node: its realized
// future ends here, so their alternatives stay unresolved.
func (rec *recorder) nodeDown(n *node) {
	rec.watch[n.id] = rec.watch[n.id][:0]
}

// reqDone notes a request's first completion for the timeline and
// in-flight accounting.
func (rec *recorder) reqDone(latS float64) {
	rec.inflight--
	rec.winDone++
	rec.winLat = append(rec.winLat, latS)
}

// reqAbandoned notes a previously in-flight request dropped by a failed
// redispatch.
func (rec *recorder) reqAbandoned() {
	rec.inflight--
}

// sprintStart tracks an admitted sprint phase: a lifecycle event plus an
// entry on the concurrency heap (its end is emitted when simulated time
// passes it — sprint phases end silently without rack coordination, so
// the recorder owns the bookkeeping in every mode).
func (rec *recorder) sprintStart(s *sim, n *node, sprintS float64) {
	rec.event(s, trace.Event{Kind: "sprint-start", Node: n.id, Rack: rackOf(s, n), Req: -1, Phase: -1, DurS: sprintS})
	h := append(rec.sprints, sprintPhase{endS: s.nowS + sprintS, node: int32(n.id)})
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p].endS <= h[i].endS {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	rec.sprints = h
}

// popSprintsThrough emits sprint-end records for every phase ending at
// or before the instant, in end order. Records surface at the next loop
// step after the phase ends; AtS carries the exact end instant.
func (rec *recorder) popSprintsThrough(atS float64) {
	for len(rec.sprints) > 0 && rec.sprints[0].endS <= atS {
		ph := rec.sprints[0]
		h := rec.sprints
		n := len(h) - 1
		h[0] = h[n]
		h = h[:n]
		for i := 0; ; {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && h[c+1].endS < h[c].endS {
				c++
			}
			if h[i].endS <= h[c].endS {
				break
			}
			h[i], h[c] = h[c], h[i]
			i = c
		}
		rec.sprints = h
		ev := trace.Event{Kind: "sprint-end", Node: int(ph.node), Rack: -1, Req: -1, Phase: -1}
		rec.emit(ph.endS, trace.Record{T: "event", Event: &ev})
	}
}

// tick advances the timeline to the sim's current instant, emitting one
// sample per crossed window boundary. The run loops call it after
// setting nowS and before handling the step, so a sample at boundary b
// reflects every event at or before b — windows are (start, b].
func (rec *recorder) tick(s *sim) {
	for s.nowS > rec.nextS {
		rec.popSprintsThrough(rec.nextS)
		rec.sample(s, rec.nextS)
		rec.winStartS = rec.nextS
		rec.nextS += rec.cfg.WindowS
	}
	rec.popSprintsThrough(s.nowS)
}

// sample emits the window ending at boundary b.
func (rec *recorder) sample(s *sim, b float64) {
	sm := &trace.Sample{
		StartS:        rec.winStartS,
		EndS:          b,
		Phase:         -1,
		Completed:     rec.winDone,
		ThroughputRPS: float64(rec.winDone) / rec.cfg.WindowS,
		P50S:          -1,
		P99S:          -1,
		InFlight:      rec.inflight,
		Sprints:       len(rec.sprints),
	}
	if s.scen != nil {
		sm.Phase = s.scen.cur
	}
	if len(rec.winLat) > 0 {
		sort.Float64s(rec.winLat)
		sm.P50S = series.Quantile(rec.winLat, 0.50)
		sm.P99S = series.Quantile(rec.winLat, 0.99)
	}
	if len(s.racks) > 0 {
		sm.RackDrawW = make([]float64, len(s.racks))
		sm.RackBufferJ = make([]float64, len(s.racks))
		for i := range s.racks {
			r := &s.racks[i]
			sm.RackDrawW[i] = r.drawW()
			// Project the buffer to the boundary without accruing it: the
			// recorder observes, never advances, rack state.
			buf := r.bufferJ
			if !r.tripped {
				if dt := b - r.lastS; dt > 0 {
					buf = math.Min(r.bufferCapJ, math.Max(0, buf+(r.budgetW-r.drawW())*dt))
				}
			}
			sm.RackBufferJ[i] = buf
		}
	}
	rec.winDone = 0
	rec.winLat = rec.winLat[:0]
	rec.emit(b, trace.Record{T: "sample", Sample: sm})
}

// finalize flushes the last partial window, retires the remaining sprint
// phases, and fills every decision's counterfactual columns from the
// drained arena: DoneS is the request's realized completion, BestAlt the
// resolved alternative with the earliest hypothetical completion, and
// RegretS their difference. finish() calls it while the arena is live.
func (rec *recorder) finalize(s *sim) {
	rec.popSprintsThrough(math.Inf(1))
	if rec.winDone > 0 || rec.inflight > 0 || len(rec.winLat) > 0 {
		rec.sample(s, rec.nextS)
	}
	for i := range rec.tr.Records {
		d := rec.tr.Records[i].Decision
		if d == nil {
			continue
		}
		if r := &s.reqs[d.Req]; r.doneS >= 0 {
			d.DoneS = r.doneS
		}
		for ai := range d.Alts {
			a := &d.Alts[ai]
			if a.HypoDoneS < 0 {
				continue
			}
			if d.BestAlt < 0 || a.HypoDoneS < d.BestAltDoneS {
				d.BestAlt = a.Node
				d.BestAltDoneS = a.HypoDoneS
			}
		}
		if d.BestAlt >= 0 && d.DoneS >= 0 {
			d.RegretS = d.DoneS - d.BestAltDoneS
		}
	}
}

// rackOf is the node's rack index for event records, -1 when rack power
// domains are off.
func rackOf(s *sim, n *node) int {
	if s.racks == nil {
		return -1
	}
	return n.rackID
}
