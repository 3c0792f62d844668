package fleet

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"
)

// TestIndexedDispatchMatchesReferenceScan is the cross-implementation
// determinism suite: every policy × rack coordination × seed, at two load
// shapes (healthy, and overloaded into tiny queues so the full-node
// fallback, drop attribution, and hedge suppression paths all fire), must
// produce identical Metrics from the O(log N) dispatch index and from the
// retained O(N) linear-scan reference selector. This is the proof that
// the index is an optimization, not a behavior change.
func TestIndexedDispatchMatchesReferenceScan(t *testing.T) {
	if refDispatch {
		t.Fatal("refDispatch already set")
	}
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
				for _, seed := range []int64{1, 7, 42} {
					cfg := DefaultConfig(p)
					cfg.Nodes = 24
					cfg.Requests = 1500
					cfg.Seed = seed
					cfg.QueueCap = sh.queueCap
					cfg.ArrivalRatePerS = sh.overload * float64(cfg.Nodes) / cfg.MeanWorkS
					cfg.Coordination = c
					name := fmt.Sprintf("%s/%s/%s/seed=%d", sh.name, p, c, seed)

					indexed := mustSimulate(t, cfg)
					refDispatch = true
					ref := mustSimulate(t, cfg)
					refDispatch = false
					if !reflect.DeepEqual(indexed, ref) {
						t.Errorf("%s: indexed dispatch diverged from the linear-scan reference:\nindexed: %+v\nref:     %+v",
							name, indexed, ref)
					}
				}
			}
		}
	}
}

func TestIndexArgminRotationTieBreak(t *testing.T) {
	idx := newDispatchIndex(5)
	idx.reset(math.Inf(-1)) // every node idle: a five-way exact tie
	for start, want := range map[int]int{0: 0, 2: 2, 4: 4} {
		if got := idx.argmin(start); got != want {
			t.Errorf("all-tied argmin(start=%d) = %d, want %d", start, got, want)
		}
	}
	// Distinct keys: the minimum wins regardless of rotation.
	for i, d := range []float64{5, 3, 9, 3, 7} {
		idx.update(i, false, d)
	}
	if got := idx.argmin(0); got != 1 {
		t.Errorf("argmin(0) = %d, want 1 (first of the tied 3s)", got)
	}
	if got := idx.argmin(2); got != 3 {
		t.Errorf("argmin(2) = %d, want 3 (rotation reaches index 3 before 1)", got)
	}
	// Full nodes lose to any non-full node whatever their key.
	idx.update(1, true, 0)
	idx.update(3, true, 0)
	if got := idx.argmin(0); got != 0 {
		t.Errorf("argmin(0) with 1,3 full = %d, want 0 (min non-full key 5)", got)
	}
	for _, i := range []int{0, 2, 4} {
		idx.update(i, true, 0)
	}
	if got := idx.argmin(0); got != -1 {
		t.Errorf("argmin over all-full tree = %d, want -1", got)
	}
}

func TestIndexFirstLE(t *testing.T) {
	idx := newDispatchIndex(6)
	idx.reset(0)
	for i, d := range []float64{4, 1, 8, 2, 1, 9} {
		idx.update(i, false, d)
	}
	if got := idx.firstLE(0, 2); got != 1 {
		t.Errorf("firstLE(start=0, 2) = %d, want 1", got)
	}
	if got := idx.firstLE(2, 2); got != 3 {
		t.Errorf("firstLE(start=2, 2) = %d, want 3 (rotation order)", got)
	}
	if got := idx.firstLE(5, 2); got != 1 {
		t.Errorf("firstLE(start=5, 2) = %d, want 1 (wraps past 5)", got)
	}
	if got := idx.firstLE(0, 0.5); got != -1 {
		t.Errorf("firstLE below the minimum = %d, want -1", got)
	}
	idx.update(1, true, math.Inf(1))
	idx.update(4, true, math.Inf(1))
	if got := idx.firstLE(0, 2); got != 3 {
		t.Errorf("firstLE with 1,4 absent = %d, want 3", got)
	}
}

func TestIndexDisableRestore(t *testing.T) {
	idx := newDispatchIndex(3)
	idx.reset(0)
	for i, d := range []float64{2, 1, 3} {
		idx.update(i, false, d)
	}
	full, d := idx.disable(1)
	if full || d != 1 {
		t.Fatalf("disable returned (%v, %g), want (false, 1)", full, d)
	}
	if got := idx.argmin(0); got != 0 {
		t.Errorf("argmin with 1 disabled = %d, want 0", got)
	}
	idx.update(1, full, d)
	if got := idx.argmin(0); got != 1 {
		t.Errorf("argmin after restore = %d, want 1", got)
	}
}

// TestIndexedDispatchAtScaleSmoke runs one mid-size simulation per policy
// purely for the index's internal consistency checks (drop accounting,
// rack invariants assert at finish); the interesting regime for the index
// is thousands of nodes, which the unit-level determinism suite cannot
// afford to cross-check exhaustively.
func TestIndexedDispatchAtScaleSmoke(t *testing.T) {
	for _, p := range Policies() {
		cfg := DefaultConfig(p)
		cfg.Nodes = 500
		cfg.Requests = 5000
		m, _, err := Run(context.Background(), Spec{Config: cfg})
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if m.Completed+m.Dropped != m.Requests {
			t.Errorf("%s: %d completed + %d dropped != %d requests", p, m.Completed, m.Dropped, m.Requests)
		}
	}
}
