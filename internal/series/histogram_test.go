package series

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 {
		t.Fatalf("empty count = %d", h.Count())
	}
	for _, v := range []float64{h.Mean(), h.Min(), h.Max(), h.Quantile(0.5)} {
		if !math.IsNaN(v) {
			t.Errorf("empty histogram statistic = %g, want NaN", v)
		}
	}
}

func TestHistogramExactMoments(t *testing.T) {
	h := NewHistogram()
	vals := []float64{0.25, 3.5, 0.001, 42, 0.25}
	sum := 0.0
	for _, v := range vals {
		h.Observe(v)
		sum += v
	}
	if h.Count() != len(vals) {
		t.Errorf("count = %d, want %d", h.Count(), len(vals))
	}
	if h.Sum() != sum {
		t.Errorf("sum = %g, want %g", h.Sum(), sum)
	}
	if h.Mean() != sum/float64(len(vals)) {
		t.Errorf("mean = %g, want %g", h.Mean(), sum/float64(len(vals)))
	}
	if h.Min() != 0.001 || h.Max() != 42 {
		t.Errorf("min/max = %g/%g, want 0.001/42", h.Min(), h.Max())
	}
}

// TestHistogramQuantileWithinOneBin is the accuracy contract: against the
// exact nearest-rank quantile of the same sample, the histogram answer is
// within one log-scale bin width (a factor of 10^(1/128)) and inside
// [Min, Max].
func TestHistogramQuantileWithinOneBin(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := NewHistogram()
	var sample []float64
	for i := 0; i < 50000; i++ {
		v := rng.ExpFloat64() * 0.3 // latency-shaped sample
		h.Observe(v)
		sample = append(sample, v)
	}
	sort.Float64s(sample)
	binFactor := math.Pow(10, 1.0/128)
	for _, q := range []float64{0, 0.01, 0.5, 0.95, 0.99, 0.999, 1} {
		exact := Quantile(sample, q)
		got := h.Quantile(q)
		if got < h.Min() || got > h.Max() {
			t.Errorf("q=%g: %g outside [%g, %g]", q, got, h.Min(), h.Max())
		}
		if got < exact/binFactor || got > exact*binFactor {
			t.Errorf("q=%g: histogram %.6g vs exact %.6g exceeds one bin width", q, got, exact)
		}
	}
}

func TestHistogramQuantileMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h := NewHistogram()
	for i := 0; i < 10000; i++ {
		h.Observe(rng.Float64()*100 + 1e-4)
	}
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.01 {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("quantile not monotone: q=%.2f gives %g after %g", q, v, prev)
		}
		prev = v
	}
	if h.Quantile(1) != h.Max() {
		t.Errorf("q=1 should be the exact max: %g vs %g", h.Quantile(1), h.Max())
	}
}

// TestHistogramClampsOutOfRange: observations outside the binned range
// land in the edge bins but keep Min/Max exact.
func TestHistogramClampsOutOfRange(t *testing.T) {
	h := NewHistogram()
	h.Observe(1e-12)
	h.Observe(1e9)
	if h.Count() != 2 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Min() != 1e-12 || h.Max() != 1e9 {
		t.Errorf("min/max = %g/%g, want exact 1e-12/1e9", h.Min(), h.Max())
	}
	if lo := h.Quantile(0.25); lo < h.Min() || lo > h.Max() {
		t.Errorf("low quantile %g escaped [min, max]", lo)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%1000)*1e-3 + 1e-4)
	}
}

// TestHistogramZeroAndNegativeSamples: non-positive observations land in
// the bottom edge bin (log10 is never taken on them), moments stay
// exact, and quantiles stay inside [Min, Max] — so a latency of exactly
// zero (or a buggy negative) can never produce a NaN or an escape.
func TestHistogramZeroAndNegativeSamples(t *testing.T) {
	h := NewHistogram()
	h.Observe(0)
	h.Observe(-3)
	h.Observe(2)
	if h.Count() != 3 || h.Sum() != -1 {
		t.Fatalf("count/sum = %d/%g, want 3/-1", h.Count(), h.Sum())
	}
	if h.Min() != -3 || h.Max() != 2 {
		t.Errorf("min/max = %g/%g, want exact -3/2", h.Min(), h.Max())
	}
	if h.Mean() != -1.0/3 {
		t.Errorf("mean = %g, want %g", h.Mean(), -1.0/3)
	}
	for _, q := range []float64{0, 0.5, 1} {
		v := h.Quantile(q)
		if math.IsNaN(v) || v < h.Min() || v > h.Max() {
			t.Errorf("q=%g: %g escaped [%g, %g]", q, v, h.Min(), h.Max())
		}
	}
	// The non-positive samples share the bottom edge bin, so a quantile
	// landing there degrades to that bin's span (the documented edge-bin
	// contract) — but never below the exact Min.
	if lo := h.Quantile(0.01); lo < h.Min() {
		t.Errorf("low quantile %g fell below the exact min %g", lo, h.Min())
	}
}

// TestHistogramSingleSample: every quantile of a one-observation sample
// is that observation, exactly.
func TestHistogramSingleSample(t *testing.T) {
	h := NewHistogram()
	h.Observe(0.37)
	for _, q := range []float64{0, 0.25, 0.5, 0.95, 0.999, 1} {
		if got := h.Quantile(q); got != 0.37 {
			t.Errorf("q=%g of a single sample = %g, want exactly 0.37", q, got)
		}
	}
	if h.Mean() != 0.37 || h.Min() != 0.37 || h.Max() != 0.37 {
		t.Errorf("moments of a single sample: mean %g min %g max %g", h.Mean(), h.Min(), h.Max())
	}
}

// TestHistogramBinBoundaryValues: values on (or within a float ulp of) a
// bin edge must keep the one-bin quantile contract — the edge itself is
// reported no more than one bin above the observation.
func TestHistogramBinBoundaryValues(t *testing.T) {
	binFactor := math.Pow(10, 1.0/128)
	for _, v := range []float64{1e-9, 1, 1 * binFactor, 0.1, math.Nextafter(0.1, 0), math.Nextafter(0.1, 1)} {
		h := NewHistogram()
		h.Observe(v)
		got := h.Quantile(0.5)
		if got != v {
			t.Errorf("boundary value %.17g: quantile %.17g should clamp to the exact single sample", v, got)
		}
	}
	// Two samples one bin apart stay ordered and within tolerance.
	h := NewHistogram()
	lo, hi := 0.1, 0.1*binFactor*1.0001
	h.Observe(lo)
	h.Observe(hi)
	p50, p100 := h.Quantile(0.5), h.Quantile(1)
	if p50 > p100 {
		t.Errorf("quantiles out of order at a bin boundary: %g > %g", p50, p100)
	}
	if p50 < lo || p50 > lo*binFactor*(1+1e-12) {
		t.Errorf("p50 %g outside one bin of %g", p50, lo)
	}
}
