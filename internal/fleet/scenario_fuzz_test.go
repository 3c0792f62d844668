package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
)

// FuzzScenarioJSON fuzzes the declarative scenario surface end to end:
// any byte string that strictly decodes (unknown fields rejected, as
// cmd/fleetsim decodes) must re-marshal and strictly re-decode to the
// same canonical form — marshaling is idempotent, so the JSON form is a
// faithful round-trip. (Canonical-form equality, not DeepEqual: an
// explicit empty list like {"classes":[]} decodes to an empty non-nil
// slice that omitempty then drops, which is the same scenario but not
// the same Go value — the fuzzer found exactly that.) And when its
// resource demands are bounded, actually running it must never panic:
// invalid scenarios fail loudly through Validate or the trace cap,
// never through a crash.
func FuzzScenarioJSON(f *testing.F) {
	_, flash := flashCrowdChurn()
	if seed, err := json.Marshal(flash); err == nil {
		f.Add(seed)
	}
	f.Add([]byte(`{"phases":[{"name":"p","duration_s":10,"shape":"sine","period_s":3,"start_factor":0.5,"end_factor":2}],"classes":[{"name":"big","count":4,"sprint_width":32},{"name":"small","count":4}],"churn":{"mtbf_s":8,"mean_downtime_s":2}}`))
	f.Add([]byte(`{"phases":[{"duration_s":1e308}]}`))
	f.Add([]byte(`{"phases":[{"duration_s":-1}],"churn":{"mtbf_s":1e-300}}`))
	f.Add([]byte(`{"phases":null,"max_requests":-5}`))
	f.Add([]byte(`{"phases":[{"duration_s":5,"shape":"bogus"}],"base_rate_per_s":1e300}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"unknown_knob":1}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var sc Scenario
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if dec.Decode(&sc) != nil {
			return
		}
		out, err := json.Marshal(sc)
		if err != nil {
			t.Fatalf("decoded scenario failed to re-marshal: %v", err)
		}
		var rt Scenario
		dec = json.NewDecoder(bytes.NewReader(out))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&rt); err != nil {
			t.Fatalf("re-marshaled scenario failed strict re-decode: %v\njson: %s", err, out)
		}
		out2, err := json.Marshal(rt)
		if err != nil {
			t.Fatalf("round-tripped scenario failed to re-marshal: %v", err)
		}
		if !bytes.Equal(out2, out) {
			t.Fatalf("round-trip changed the scenario's canonical form:\nbefore: %s\nafter:  %s", out, out2)
		}

		if !runnableUnderFuzz(sc) {
			return
		}
		sc.MaxRequests = 2000 // bound the arena; hitting the cap is a loud error, not a crash
		for _, workers := range []int{0, 3} {
			cfg := DefaultConfig(SprintAware)
			cfg.Coordination = TokenPermit
			cfg.Workers = workers
			if n := sc.Nodes(); n > 0 {
				cfg.Nodes = n
			}
			_, _, _ = Run(context.Background(), Spec{Config: cfg, Scenario: &sc}) // errors fine; panics are findings
		}
	})
}

// runnableUnderFuzz bounds the execution half of the fuzz target to
// scenarios whose event counts are finite and small. Validate rejects
// most hostile inputs loudly, but two demands scale with otherwise-valid
// field values rather than failing validation: churn schedules one
// failure event per MTBF over the whole timeline, and class counts size
// the fleet. The decode round-trip above still covers every input.
func runnableUnderFuzz(sc Scenario) bool {
	totalS := 0.0
	for _, p := range sc.Phases {
		if !(p.DurationS > 0) || p.DurationS > 1e4 {
			return false
		}
		totalS += p.DurationS
	}
	if len(sc.Phases) == 0 || len(sc.Phases) > 16 {
		return false
	}
	if sc.BaseRatePerS < 0 || sc.BaseRatePerS > 100 {
		return false
	}
	if sc.Churn.MTBFS > 0 && totalS/sc.Churn.MTBFS > 1e4 {
		return false
	}
	nodes := 0
	for _, c := range sc.Classes {
		if c.Count < 0 || c.Count > 128 {
			return false
		}
		nodes += c.Count
	}
	return nodes <= 128
}
