package sprinting_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"sprinting"
)

func TestPublicQuickRun(t *testing.T) {
	base, err := sprinting.RunKernel("sobel", sprinting.SizeA, sprinting.DefaultConfig(sprinting.Sustained))
	if err != nil {
		t.Fatal(err)
	}
	spr, err := sprinting.RunKernel("sobel", sprinting.SizeA, sprinting.DefaultConfig(sprinting.ParallelSprint))
	if err != nil {
		t.Fatal(err)
	}
	if sp := spr.Speedup(base); sp < 5 {
		t.Errorf("public API sprint speedup = %.1f, want substantial", sp)
	}
}

func TestPublicKernelRegistry(t *testing.T) {
	if got := len(sprinting.Kernels()); got != 6 {
		t.Errorf("Kernels() = %d entries, want 6", got)
	}
	if _, err := sprinting.RunKernel("nope", sprinting.SizeA, sprinting.DefaultConfig(sprinting.Sustained)); err == nil {
		t.Error("unknown kernel should error")
	}
}

func TestPublicThermals(t *testing.T) {
	d := sprinting.DefaultThermalDesign()
	res := sprinting.SimulateSprintThermals(d, 16)
	if res.SprintEndS < 1.0 || res.SprintEndS > 1.6 {
		t.Errorf("sprint duration = %.2f s, want a little over 1 s", res.SprintEndS)
	}
	cool := sprinting.SimulateCooldownThermals(d, 16)
	if !cool.NearOK {
		t.Error("cooldown should reach near-ambient")
	}
}

func TestPublicActivation(t *testing.T) {
	abrupt, err := sprinting.SimulateActivation(0)
	if err != nil {
		t.Fatal(err)
	}
	if abrupt.WithinTolerance {
		t.Error("abrupt activation should fail tolerance")
	}
	slow, err := sprinting.SimulateActivation(128e-6)
	if err != nil {
		t.Fatal(err)
	}
	if !slow.WithinTolerance {
		t.Error("128 µs ramp should pass tolerance")
	}
}

func TestPublicPowerSupply(t *testing.T) {
	s := sprinting.DefaultPowerSupply()
	r := s.Evaluate(sprinting.SprintDemand{PowerW: 16, DurationS: 1, RailV: 1})
	if !r.Feasible {
		t.Errorf("16 W × 1 s should be feasible: %s", r.Reason)
	}
}

func TestPublicExperimentList(t *testing.T) {
	ids := sprinting.ExperimentIDs()
	if len(ids) < 13 {
		t.Errorf("experiment registry too small: %v", ids)
	}
	var buf bytes.Buffer
	if err := sprinting.RunExperiment(&buf, "table1", 1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "sobel") {
		t.Error("table1 output missing kernels")
	}
	if err := sprinting.RunExperiment(&buf, "figX", 1); err == nil {
		t.Error("unknown experiment should error")
	}
}

func TestPublicExperimentCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := sprinting.RunExperimentCSV(&buf, "table1", 1); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "kernel,description") {
		t.Errorf("CSV output missing header: %q", out)
	}
}

func TestPublicLimitedConfig(t *testing.T) {
	full := sprinting.DefaultConfig(sprinting.ParallelSprint)
	lim := sprinting.LimitedConfig(sprinting.ParallelSprint)
	if lim.Thermal.PCMMassG >= full.Thermal.PCMMassG {
		t.Error("limited config should carry 100× less PCM")
	}
	if ratio := full.Thermal.PCMMassG / lim.Thermal.PCMMassG; ratio < 99 || ratio > 101 {
		t.Errorf("PCM mass ratio = %.1f, want 100 (the paper's §8.3 design point)", ratio)
	}
}

func TestPublicGovernor(t *testing.T) {
	g := sprinting.NewGovernor()
	if !g.CanSprint(16, 1) {
		t.Error("fresh governor should allow the design-point sprint")
	}
	g.RecordSprint(16, 1)
	if g.TimeToFullS() <= 0 {
		t.Error("after a sprint the budget needs time to refill")
	}
}

func TestPublicFleet(t *testing.T) {
	cfg := sprinting.DefaultFleetConfig(sprinting.FleetSprintAware)
	cfg.Nodes = 4
	cfg.Requests = 300
	m, err := sprinting.SimulateFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Completed != cfg.Requests || m.P99S <= 0 || m.TotalEnergyJ <= 0 {
		t.Errorf("degenerate fleet metrics: %+v", m)
	}
}

// TestPublicReplayNeedsRows: an empty or nil trace is an error, never a
// silent fallback to the synthetic arrival source.
func TestPublicReplayNeedsRows(t *testing.T) {
	cfg := sprinting.DefaultFleetConfig(sprinting.FleetSprintAware)
	for _, rows := range [][]sprinting.TraceRequest{nil, {}} {
		if _, err := sprinting.SimulateReplayContext(context.Background(), cfg, rows, nil); err == nil {
			t.Errorf("replay of %#v accepted", rows)
		}
	}
}

func TestPublicFleetSweepDeterministic(t *testing.T) {
	var cfgs []sprinting.FleetConfig
	for _, p := range sprinting.FleetPolicies() {
		cfg := sprinting.DefaultFleetConfig(p)
		cfg.Nodes = 8
		cfg.Requests = 800
		cfgs = append(cfgs, cfg)
	}
	serial, err := sprinting.SimulateFleetSweep(cfgs, 1)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := sprinting.SimulateFleetSweep(cfgs, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i].P99S != wide[i].P99S || serial[i].TotalEnergyJ != wide[i].TotalEnergyJ {
			t.Errorf("policy %s: workers=1 and workers=4 metrics differ", cfgs[i].Policy)
		}
	}
	if _, err := sprinting.ParseFleetPolicy("sprint-aware"); err != nil {
		t.Errorf("ParseFleetPolicy: %v", err)
	}
}
