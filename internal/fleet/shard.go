// Sharded execution: one decoupled fleet simulation split across W
// concurrent per-worker event loops, with racks as the shard boundary
// so every rack power domain is owned by exactly one worker. The
// contract is absolute: Metrics are byte-identical at every worker
// count, and Workers ≤ 1 runs the classic single loop.
//
// Only decoupled configurations shard (parallelOK). Plain round-robin
// dispatch is a static assignment — arrival i goes to node i mod N,
// because the rotation counter advances exactly once per arrival and
// never reads node state — so with rack admission also shard-local
// (anything but the Probabilistic policy's global random stream) the
// shards share no state at all. Each worker runs the ordinary merged
// arrival-cursor/event-heap loop over its node range on its own
// goroutine, with a strided cursor selecting the arrivals it owns, and
// the parent merges the results: integer counters add, SimS is the max
// completion instant, and every float — every latency figure included —
// is reduced afterwards by finish() in canonical arena/node/rack order,
// over the shared arena the workers wrote their completions into.
// This is the engine the ≥3× speedup gate measures.
//
// Every coupled configuration — least-loaded, sprint-aware, and hedged
// dispatch (a fleet-wide argmin per arrival), Probabilistic admission,
// scenarios, the flight recorder, the reliability layer, and workloads
// (global seeded streams and fleet-wide state consumed in event order)
// — runs the single loop at any Workers value: the outcome at time t
// depends on every node's state at time t, so the dependency chain
// between consecutive dispatches is the simulation's critical path.
//
// The dispatch index is segmented (dspSeg): one tournament tree group
// per contiguous node-class block, with queries merged under the total
// candidate order the linear scan defines. This keeps sprint-aware
// dispatch O(log N) on heterogeneous NodeClasses fleets, whose idle keys
// are only comparable within one class; a homogeneous fleet builds one
// segment, the classic single tree.
package fleet

import (
	"context"
	"math"
	"sync"
)

// dspSeg is one dispatch-index segment: the tournament trees over the
// contiguous node range [lo, hi), which spans exactly one node class.
// Least-loaded/hedged selection uses idx (drain keys); sprint-aware
// selection uses the busyIdx/idleIdx pair. Tree leaves are local ids
// (node id − lo).
type dspSeg struct {
	lo, hi int
	class  int32

	idx     *dispatchIndex
	busyIdx *dispatchIndex
	idleIdx *dispatchIndex
}

// arenaPool recycles request arenas across runs and sweep points: the
// arena is the simulator's one large per-run allocation, and sweep
// drivers (and benchmark loops) otherwise pay it per point.
var arenaPool sync.Pool

// getArena returns a request arena of length n, reusing a pooled
// allocation when one is large enough. Callers overwrite every element
// they use; putArena returns the arena once finish() has read it.
func getArena(n int) []request {
	if p, _ := arenaPool.Get().(*[]request); p != nil && cap(*p) >= n {
		return (*p)[:n]
	}
	return make([]request, n)
}

// putArena recycles an arena. The Metrics returned to callers never
// reference it, so recycling is safe the moment finish() returns.
func putArena(reqs []request) {
	if cap(reqs) == 0 {
		return
	}
	arenaPool.Put(&reqs)
}

// initShards builds the dispatch-index segments and, for a decoupled
// run with Workers > 1, the shard layout; newSim calls it once the
// nodes, classes, racks, and optional layers exist.
//
// Shards are contiguous rack-aligned node ranges (rack size 1 when
// power domains are off), distributed as evenly as whole racks allow;
// Workers is clamped to the rack-group count so no shard is empty.
// runParallel builds its per-worker loops from the cuts at run time.
func (s *sim) initShards() {
	cfg := s.cfg
	if !s.useRef && cfg.Policy != RoundRobin {
		s.buildSegs()
	}
	if cfg.Workers <= 1 || !s.parallelOK() {
		return
	}
	rackSz := 1
	if cfg.Coordination != NoCoordination {
		rackSz = cfg.RackSize
	}
	nRacks := (cfg.Nodes + rackSz - 1) / rackSz
	w := cfg.Workers
	if w > nRacks {
		w = nRacks
	}
	if w <= 1 {
		return
	}
	s.cuts = make([]int, w+1)
	for k := 0; k <= w; k++ {
		n := (k * nRacks / w) * rackSz
		if n > cfg.Nodes {
			n = cfg.Nodes
		}
		s.cuts[k] = n
	}
}

// parallelOK reports whether the shards are fully decoupled, making the
// concurrent engine exact: a plain (non-scenario) run under state-blind
// round-robin dispatch, without the Probabilistic admission policy's
// fleet-global random stream. Everything else runs the single loop —
// including any traced run, because the flight recorder appends one
// global record stream in event order, and any run with the reliability
// layer armed, whose retry budget and seeded fault/jitter draws are
// fleet-global state consumed in event order, and any workload run,
// whose per-class admission buckets and dequeue disciplines are
// fleet-global too. Round-robin never hedges, so runParallel merges no
// hedge counters (CancelledCopies, HedgesIssued, ...): widening this to
// hedged dispatch means merging those again.
func (s *sim) parallelOK() bool {
	return s.scen == nil && s.cfg.Policy == RoundRobin && s.cfg.Coordination != Probabilistic && s.rec == nil && s.rel == nil && s.wl == nil
}

// buildSegs lowers the class blocks into dispatch-index segments: one
// per maximal run of same-class nodes. A homogeneous fleet yields one
// segment — the classic single tree, traversed identically.
func (s *sim) buildSegs() {
	nn := len(s.nodes)
	bound := make([]bool, nn+1)
	bound[0], bound[nn] = true, true
	for i := 1; i < nn; i++ {
		if s.nodes[i].class != s.nodes[i-1].class {
			bound[i] = true
		}
	}
	s.segIdx = make([]int32, nn)
	lo := 0
	for hi := 1; hi <= nn; hi++ {
		if !bound[hi] {
			continue
		}
		sg := dspSeg{lo: lo, hi: hi, class: s.nodes[lo].class}
		switch s.cfg.Policy {
		case SprintAware:
			sg.busyIdx = newDispatchIndex(hi - lo) // empty: no node busy
			sg.idleIdx = newDispatchIndex(hi - lo)
			sg.idleIdx.reset(s.tKey(&s.nodes[lo])) // full budgets: one shared key per class
		default: // LeastLoaded, Hedged
			sg.idx = newDispatchIndex(hi - lo)
			sg.idx.reset(math.Inf(-1)) // every node idle
		}
		for i := lo; i < hi; i++ {
			s.segIdx[i] = int32(len(s.segs))
		}
		s.segs = append(s.segs, sg)
		lo = hi
	}
}

// segArgmin returns the node holding the fleet-wide minimum (full, key)
// pair that comes first in rotation order from rot, or -1 when every
// node is absent — the single-tree argmin generalized across segments.
// The fleet minimum is the minimum of the segment roots (order-
// independent), and the first-in-rotation holder is found by walking
// the segments in cyclic node order from the one containing rot: the
// containing segment's suffix, every other segment in order, then the
// containing segment's prefix — exactly the index order the one-tree
// firstLE descent visits.
func (s *sim) segArgmin(rot int) int {
	mFull, mD := true, math.Inf(1)
	for si := range s.segs {
		t := s.segs[si].idx
		if keyLess(t.full[1], t.d[1], mFull, mD) {
			mFull, mD = t.full[1], t.d[1]
		}
	}
	if mFull {
		return -1
	}
	k := int(s.segIdx[rot])
	sg := &s.segs[k]
	if id := sg.idx.firstLERange(1, 0, sg.idx.size, rot-sg.lo, sg.idx.n, mD); id >= 0 {
		return sg.lo + id
	}
	for j := 1; j < len(s.segs); j++ {
		t := &s.segs[(k+j)%len(s.segs)]
		if id := t.idx.firstLERange(1, 0, t.idx.size, 0, t.idx.n, mD); id >= 0 {
			return t.lo + id
		}
	}
	if id := sg.idx.firstLERange(1, 0, sg.idx.size, 0, rot-sg.lo, mD); id >= 0 {
		return sg.lo + id
	}
	return -1
}

// start runs the engine the configuration selected: the concurrent
// per-worker loops when the shards are decoupled, the classic loop
// otherwise.
func (s *sim) start(ctx context.Context) (Metrics, error) {
	if s.cuts != nil {
		return s.runParallel(ctx)
	}
	return s.run(ctx)
}

// runParallel is the decoupled engine: one goroutine per shard, each a
// self-contained sim sharing the parent's node, rack, class, and
// request arrays (all index-disjoint across shards), merged when every
// worker drains.
func (s *sim) runParallel(ctx context.Context) (Metrics, error) {
	w := len(s.cuts) - 1
	subs := make([]sim, w)
	errs := make([]error, w)
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		sub := &subs[k]
		sub.cfg = s.cfg
		sub.rate = s.rate
		sub.classes = s.classes
		sub.lastFailed = -1
		sub.nodes = s.nodes
		sub.racks = s.racks
		sub.reqs = s.reqs
		sub.m.Policy = s.cfg.Policy
		nlo, nhi := s.cuts[k], s.cuts[k+1]
		// Pre-size the heap for its steady state (a completion and sprint
		// end per busy node, trip bookkeeping per rack) so the worker loop
		// never reallocates it.
		sub.events.a = make([]event, 0, 2*(nhi-nlo)+64)
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[k] = sub.runStride(ctx, nlo, nhi)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return Metrics{}, err
		}
	}
	for k := range subs {
		sub := &subs[k]
		s.m.Completed += sub.m.Completed
		s.m.Dropped += sub.m.Dropped
		s.m.BreakerTrips += sub.m.BreakerTrips
		s.m.PermitRequests += sub.m.PermitRequests
		s.m.PermitDenials += sub.m.PermitDenials
		if sub.lastDoneS > s.lastDoneS {
			s.lastDoneS = sub.lastDoneS
		}
	}
	return s.finish(), nil
}

// runStride is one decoupled worker's loop over the node range
// [nlo, nhi): the classic merged arrival-cursor/event-heap loop, with
// the cursor striding over exactly the arrivals whose round-robin
// target i mod N falls in the range. Arrival order within the worker is
// ascending index — base*N + j for j in [nlo, nhi) — which is ascending
// time, so the merge rule (arrival fires first on a time tie) behaves
// exactly as in the sequential loop.
func (w *sim) runStride(ctx context.Context, nlo, nhi int) error {
	nn := len(w.nodes)
	base, j := 0, nlo
	ai := nlo
	for steps := 0; ; steps++ {
		if steps&1023 == 1023 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if ai < len(w.reqs) && (w.events.len() == 0 || w.reqs[ai].arrivalS <= w.events.top().atS) {
			w.nowS = w.reqs[ai].arrivalS
			w.dispatchTo(int32(ai), &w.nodes[j])
			j++
			if j == nhi {
				j = nlo
				base += nn
			}
			ai = base + j
			continue
		}
		if w.events.len() == 0 {
			break
		}
		ev := w.events.pop()
		w.nowS = ev.atS
		w.handle(ev)
	}
	return nil
}

// dispatchTo routes an arrival to its statically assigned round-robin
// target, mirroring dispatch() with the selection precomputed: the
// sequential rotation counter equals the arrival index, every node is
// alive (no churn outside scenario mode), and round-robin never hedges.
func (s *sim) dispatchTo(ri int32, n *node) {
	if n.outstanding() >= s.cl(n).queueCap {
		s.drop(ri, n)
		return
	}
	s.reqs[ri].firstNode = int32(n.id)
	s.enqueue(n, reqCopy{req: ri})
}
