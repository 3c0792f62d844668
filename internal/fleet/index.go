// The dispatch index: incrementally maintained tournament trees over
// per-node routing keys that replace the per-arrival O(N) scan of the
// pre-index implementation with O(log N) queries, while reproducing the
// linear scan's selection — including its rotating tie-break — exactly.
//
// Least-loaded (and hedged) dispatch uses one tree whose leaf key is
// (full, drainAtS):
//
//   - full marks a node whose queue is at capacity; any non-full node
//     beats any full node (the linear scan's best/bestFull split);
//   - drainAtS is the absolute instant the node's present backlog drains
//     at full sprint width: busyUntilS + queuedNaiveS for a busy node,
//     −Inf for an idle one. Ordering by the absolute instant is ordering
//     by outstanding work (every candidate shares the same now), but the
//     key only changes when the node's state changes — enqueue, service
//     start, completion — never merely because time passed. Idle nodes
//     share the single key −Inf, so they tie exactly and the rotating
//     tie-break spreads consecutive arrivals across them just as the
//     scan did.
//
// The argmin query reads the minimum key off the root aggregate; firstLE
// at that key finds the first leaf holding it in rotation order from the
// rotating start, one O(log N) range descent on each side of the wrap.
//
// Sprint-aware dispatch scores a node as its backlog-drain instant plus
// a governor-projected service time, which depends on the request's
// size — no single static key orders busy and idle nodes together. It
// therefore splits the fleet across two trees:
//
//   - idle nodes are keyed by tKey = govNow − remainingJ/drainW, the
//     instant the governor's refill line extrapolates back to an empty
//     budget. The projected budget of an idle node at query time is
//     min(capacity, drainW·(now − tKey)) — a decreasing function of
//     tKey alone — so ascending tKey orders idle nodes by projected
//     finish for every request size, and nodes whose projection has
//     saturated at full capacity tie exactly (identical keys are
//     identical projections). One firstLE descent finds the first node
//     in rotation order whose budget covers the request at full width
//     (the scan's tie set, rotation-resolved); if none qualifies, the
//     argmin holds the most-recovered budget and is the unique best.
//   - busy nodes are keyed by (full, drainAtS) and enumerated best-first
//     with the admissible bound drainAtS + work/width (a node cannot
//     finish before its backlog drains plus a full-width service; the
//     bound is exact when the projected budget covers the request), so
//     with healthy thermal budgets the enumeration inspects only nodes
//     that could still beat the idle champion — usually none — and with
//     every budget depleted it degrades gracefully toward the full scan
//     it replaces.
package fleet

import "math"

// dispatchIndex is a 1-based implicit binary tournament tree over fleet
// routing keys. Leaf i of the fleet lives at tree slot size+i; absent
// members (padding, removed, or disabled nodes) hold (full=true, +Inf)
// so they lose to every present node and every firstLE descent prunes
// them.
type dispatchIndex struct {
	n    int // real leaves (fleet size)
	size int // power-of-two leaf span
	d    []float64
	full []bool
	// scratch is the reusable best-first frontier for sprint-aware
	// queries; it grows to its steady-state size once and never again.
	scratch []idxEnt
}

// idxEnt is one best-first frontier entry: a tree slot and its subtree's
// minimum present key.
type idxEnt struct {
	d   float64
	idx int32
}

// newDispatchIndex builds an empty tree (every leaf absent); reset
// populates the real leaves.
func newDispatchIndex(n int) *dispatchIndex {
	size := 1
	for size < n {
		size <<= 1
	}
	t := &dispatchIndex{n: n, size: size, d: make([]float64, 2*size), full: make([]bool, 2*size)}
	for i := range t.d {
		t.d[i] = math.Inf(1)
		t.full[i] = true
	}
	return t
}

// reset sets every real leaf present with the same key and rebuilds the
// aggregates in O(n) — the all-idle initial state of a simulation.
func (t *dispatchIndex) reset(d float64) {
	for i := 0; i < t.n; i++ {
		t.d[t.size+i] = d
		t.full[t.size+i] = false
	}
	for i := t.size - 1; i >= 1; i-- {
		t.pull(i)
	}
}

// keyLess orders keys lexicographically: present before absent/full,
// then by key value.
//
//sprint:hotpath
func keyLess(f1 bool, d1 float64, f2 bool, d2 float64) bool {
	if f1 != f2 {
		return !f1
	}
	return d1 < d2
}

// pull recomputes an interior slot from its children.
//
//sprint:hotpath
func (t *dispatchIndex) pull(i int) {
	l, r := 2*i, 2*i+1
	if keyLess(t.full[r], t.d[r], t.full[l], t.d[l]) {
		t.full[i], t.d[i] = t.full[r], t.d[r]
	} else {
		t.full[i], t.d[i] = t.full[l], t.d[l]
	}
}

// update replaces node id's key and refreshes the path to the root.
//
//sprint:hotpath
func (t *dispatchIndex) update(id int, full bool, d float64) {
	i := t.size + id
	t.full[i], t.d[i] = full, d
	for i >>= 1; i >= 1; i >>= 1 {
		t.pull(i)
	}
}

// disable temporarily removes node id from consideration (hedging never
// duplicates onto the original copy's node); the caller restores the
// returned key with update afterwards.
//
//sprint:hotpath
func (t *dispatchIndex) disable(id int) (full bool, d float64) {
	i := t.size + id
	full, d = t.full[i], t.d[i]
	t.update(id, true, math.Inf(1))
	return full, d
}

// argmin returns the present node holding the minimum key that comes
// first in rotation order from start, or -1 when no node is present. It
// reproduces the linear scan exactly: the scan's strict less-than keeps
// the first minimum it meets walking (start+i) mod n. Since the root
// aggregate is the global minimum, "key equal to it" and "key at most
// it" coincide, so the descent is firstLE at that threshold.
//
//sprint:hotpath
func (t *dispatchIndex) argmin(start int) int {
	if t.full[1] {
		return -1
	}
	return t.firstLE(start, t.d[1])
}

// firstLE returns the present node with key ≤ thresh that comes first in
// rotation order from start, or -1. Sprint-aware dispatch uses it to
// resolve the rotating tie among every idle node whose projected budget
// covers the request at full width; argmin uses it with the root's own
// minimum as the threshold.
//
//sprint:hotpath
func (t *dispatchIndex) firstLE(start int, thresh float64) int {
	if t.full[1] || t.d[1] > thresh {
		return -1
	}
	if i := t.firstLERange(1, 0, t.size, start, t.n, thresh); i >= 0 {
		return i
	}
	return t.firstLERange(1, 0, t.size, 0, start, thresh)
}

// firstLERange returns the first present leaf in [lo, hi) under node
// (spanning [nlo, nhi)) with key ≤ thresh, or -1, pruning every subtree
// whose minimum present key exceeds thresh.
//
//sprint:hotpath
func (t *dispatchIndex) firstLERange(node, nlo, nhi, lo, hi int, thresh float64) int {
	if nhi <= lo || hi <= nlo || t.full[node] || t.d[node] > thresh {
		return -1
	}
	if nhi-nlo == 1 {
		return nlo
	}
	mid := (nlo + nhi) / 2
	if i := t.firstLERange(2*node, nlo, mid, lo, hi, thresh); i >= 0 {
		return i
	}
	return t.firstLERange(2*node+1, mid, nhi, lo, hi, thresh)
}

// frontier heap helpers: order by (d, idx) so the best-first enumeration
// is deterministic.

//sprint:hotpath
func entBefore(a, b idxEnt) bool {
	if a.d != b.d {
		return a.d < b.d
	}
	return a.idx < b.idx
}

//sprint:hotpath
func (t *dispatchIndex) fpush(e idxEnt) {
	t.scratch = append(t.scratch, e)
	i := len(t.scratch) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !entBefore(t.scratch[i], t.scratch[p]) {
			break
		}
		t.scratch[i], t.scratch[p] = t.scratch[p], t.scratch[i]
		i = p
	}
}

//sprint:hotpath
func (t *dispatchIndex) fpop() idxEnt {
	e := t.scratch[0]
	n := len(t.scratch) - 1
	t.scratch[0] = t.scratch[n]
	t.scratch = t.scratch[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && entBefore(t.scratch[c+1], t.scratch[c]) {
			c++
		}
		if !entBefore(t.scratch[c], t.scratch[i]) {
			break
		}
		t.scratch[i], t.scratch[c] = t.scratch[c], t.scratch[i]
		i = c
	}
	return e
}

// resetFrontier clears the best-first frontier and seeds it with the
// root (unless no node is present). The sprint-aware selection drives
// the enumeration inline with fpush/fpop — a callback here would
// heap-allocate its closure on every arrival.
func (t *dispatchIndex) resetFrontier() {
	t.scratch = t.scratch[:0]
	if !t.full[1] {
		t.fpush(idxEnt{d: t.d[1], idx: 1})
	}
}
