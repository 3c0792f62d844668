package fleet

import (
	"sort"

	"sprinting/internal/series"
)

// cohort is one arrival cohort's outcome — the whole fleet, one scenario
// phase, one SLO class, or one tenant: its requests counted by terminal
// state, their latency sum in arena order, and (fleet, phase, and class
// cohorts) their latency distribution. finish() derives every one of
// them from the same walk over the arena (see settleCohorts), so two
// reports of the same requests cannot disagree.
type cohort struct {
	offered, completed, dropped, timedOut, shed int

	// sumS is the latency sum in arena order — the arrival trace, a pure
	// function of the configuration — never in completion order, so the
	// mean is bit-identical whichever engine ran.
	sumS float64
	// within counts completions at or under targetS (classes with a
	// declared latency target only).
	targetS float64
	within  int

	// The distribution: lat is the sorted exact buffer, sized from
	// completed; hist streams latencies instead above exactQuantileCutoff.
	// Both stay nil on tenant cohorts, which report counts only.
	lat  []float64
	hist *series.Histogram
}

// cohorts is every cohort a run reports: the fleet always, phases in
// scenario runs, classes and tenants in workload or labeled replay runs.
type cohorts struct {
	fleet   cohort
	phases  []cohort
	classes []cohort
	tenants []cohort
}

// settleCohorts walks the arena once, settling each request into every
// cohort it belongs to; every latency figure and every per-phase,
// per-class, and per-tenant count derives from that walk. The quantile
// mode is decided here, once per run: exact below exactQuantileCutoff (or
// with Config.ExactQuantiles), streaming above. A streaming walk observes
// each latency into its cohorts' histograms as it settles them. An exact
// run then fills buffers presized from the walk's counts, in a pass over
// the completions, and sorts each one; quantiles depend only on the
// sorted sample, so the fill order is immaterial.
func (s *sim) settleCohorts() *cohorts {
	co := &cohorts{}
	if s.scen != nil {
		co.phases = make([]cohort, len(s.scen.spec.Phases))
	}
	if s.wl != nil {
		co.classes = make([]cohort, len(s.wl.classes))
		for i := range co.classes {
			co.classes[i].targetS = s.wl.classes[i].targetP99S
		}
		co.tenants = make([]cohort, len(s.wl.tenants))
	}
	dists := co.distributions()
	stream := !s.cfg.ExactQuantiles && s.cfg.Requests > exactQuantileCutoff
	if stream {
		for _, c := range dists {
			c.hist = series.NewHistogram()
		}
	}
	for i := range s.reqs {
		r := &s.reqs[i]
		co.fleet.settle(r)
		if co.phases != nil {
			co.phases[r.phase].settle(r)
		}
		if co.classes != nil {
			co.classes[r.slo].settle(r)
			co.tenants[r.tenant].settle(r)
		}
	}
	if stream {
		return co
	}
	for _, c := range dists {
		c.lat = make([]float64, 0, c.completed)
	}
	for i := range s.reqs {
		r := &s.reqs[i]
		if r.doneS < 0 {
			continue
		}
		lat := r.doneS - r.arrivalS
		co.fleet.lat = append(co.fleet.lat, lat)
		if co.phases != nil {
			p := &co.phases[r.phase]
			p.lat = append(p.lat, lat)
		}
		if co.classes != nil {
			c := &co.classes[r.slo]
			c.lat = append(c.lat, lat)
		}
	}
	for _, c := range dists {
		sort.Float64s(c.lat)
	}
	return co
}

// distributions lists the cohorts that carry a latency distribution:
// the fleet, every phase, and every class.
func (co *cohorts) distributions() []*cohort {
	out := make([]*cohort, 0, 1+len(co.phases)+len(co.classes))
	out = append(out, &co.fleet)
	for i := range co.phases {
		out = append(out, &co.phases[i])
	}
	for i := range co.classes {
		out = append(out, &co.classes[i])
	}
	return out
}

// settle counts one request into the cohort by its terminal state. The
// states are exclusive by construction (a request resolves once), and a
// completion's latency joins the sum and, when streaming, the histogram.
func (c *cohort) settle(r *request) {
	c.offered++
	switch {
	case r.doneS >= 0:
		lat := r.doneS - r.arrivalS
		c.completed++
		c.sumS += lat
		if c.targetS > 0 && lat <= c.targetS {
			c.within++
		}
		if c.hist != nil {
			c.hist.Observe(lat)
		}
	case r.dropped:
		c.dropped++
	case r.timedOut:
		c.timedOut++
	case r.shed:
		c.shed++
	}
}

// meanS is the arena-order mean latency; 0 when nothing completed.
func (c *cohort) meanS() float64 {
	if c.completed == 0 {
		return 0
	}
	return c.sumS / float64(c.completed)
}

// quantiles reports the distribution's p50, p95, p99, p999, and max:
// exact nearest-rank over the sorted buffer, or within one histogram bin
// (max exact) when streaming; all zero when nothing completed.
func (c *cohort) quantiles() (p50, p95, p99, p999, maxS float64) {
	switch {
	case c.hist != nil && c.hist.Count() > 0:
		h := c.hist
		return h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99), h.Quantile(0.999), h.Max()
	case len(c.lat) > 0:
		l := c.lat
		return series.Quantile(l, 0.50), series.Quantile(l, 0.95), series.Quantile(l, 0.99), series.Quantile(l, 0.999), l[len(l)-1]
	}
	return 0, 0, 0, 0, 0
}
