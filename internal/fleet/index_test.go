package fleet

import (
	"math"
	"testing"
)

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
