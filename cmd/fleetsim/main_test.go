package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sprinting"
)

// runOut drives the command and returns (stdout, exit code).
func runOut(t *testing.T, args ...string) (string, int) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(context.Background(), args, &out, &errb)
	if code != 0 {
		t.Logf("stderr: %s", errb.String())
	}
	return out.String(), code
}

func TestSmoke(t *testing.T) {
	out, code := runOut(t, "-nodes", "4", "-requests", "300", "-policy", "sprint-aware")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"fleet: 4 nodes", "sprint-aware", "p999"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestAllPoliciesListed(t *testing.T) {
	out, code := runOut(t, "-nodes", "4", "-requests", "300")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"round-robin", "least-loaded", "sprint-aware", "hedged"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing policy %q", want)
		}
	}
}

// TestWorkerCountDoesNotChangeOutput is the binary-level determinism
// guarantee: simulations are pure functions of their configs and the
// engine returns results in config order, so serial and parallel sweeps
// render byte-identical reports — for synthetic arrivals and for every
// input file that owns the load.
func TestWorkerCountDoesNotChangeOutput(t *testing.T) {
	sp := writeScenario(t, flashScenario)
	wp := writeWorkload(t)
	for _, args := range [][]string{
		{"-nodes", "32", "-requests", "3000", "-seed", "9"},
		{"-nodes", "4", "-workload", wp, "-seed", "9"},
		{"-workload", wp, "-scenario", sp, "-coordination", "all", "-seed", "9"},
	} {
		serial, code := runOut(t, append(args, "-workers", "1")...)
		if code != 0 {
			t.Fatalf("%v: serial exit %d", args, code)
		}
		wide, code := runOut(t, append(args, "-workers", "8")...)
		if code != 0 {
			t.Fatalf("%v: wide exit %d", args, code)
		}
		if serial != wide {
			t.Errorf("%v: workers=1 and workers=8 differ:\n--- serial ---\n%s\n--- wide ---\n%s", args, serial, wide)
		}
	}
}

func TestBadFlagsFail(t *testing.T) {
	if _, code := runOut(t, "-bogus"); code != 2 {
		t.Errorf("bad flag should exit 2, got %d", code)
	}
	if _, code := runOut(t, "-policy", "nope"); code != 2 {
		t.Errorf("bad policy should exit 2, got %d", code)
	}
	if _, code := runOut(t, "-nodes", "-3"); code != 1 {
		t.Errorf("invalid config should exit 1, got %d", code)
	}
}

func TestCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out, errb bytes.Buffer
	if code := run(ctx, []string{"-nodes", "16", "-requests", "50000"}, &out, &errb); code != 1 {
		t.Errorf("cancelled run should exit 1, got %d", code)
	}
}

// TestRackCoordinationSmoke drives the rack power-domain mode: the report
// switches to the coordination columns and shows the headline contrast
// (uncoordinated trips, token-permit never).
func TestRackCoordinationSmoke(t *testing.T) {
	out, code := runOut(t, "-nodes", "16", "-requests", "2000", "-policy", "sprint-aware",
		"-coordination", "all", "-rack-size", "16", "-rack-budget-w", "31", "-rate", "9.6")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"uncoordinated", "token-permit", "probabilistic", "trips", "rack-thr(s)"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestRackWorkerCountDoesNotChangeOutput extends the binary-level
// determinism guarantee to rack coordination: the probabilistic admission
// stream is part of the per-simulation state, so serial and parallel
// sweeps render byte-identical reports.
func TestRackWorkerCountDoesNotChangeOutput(t *testing.T) {
	args := []string{"-nodes", "32", "-requests", "2000", "-seed", "9",
		"-coordination", "all", "-rack-size", "16", "-rack-budget-w", "31"}
	serial, code := runOut(t, append(args, "-workers", "1")...)
	if code != 0 {
		t.Fatalf("serial exit %d", code)
	}
	wide, code := runOut(t, append(args, "-workers", "8")...)
	if code != 0 {
		t.Fatalf("wide exit %d", code)
	}
	if serial != wide {
		t.Errorf("workers=1 and workers=8 differ:\n--- serial ---\n%s\n--- wide ---\n%s", serial, wide)
	}
}

// TestNonFiniteFlagsFail: flag.Float64 parses NaN and Inf, which used to
// reach the simulator — a NaN mean work reported zero latencies and a
// NaN rack budget looped forever. They are flag errors now.
func TestNonFiniteFlagsFail(t *testing.T) {
	for _, args := range [][]string{
		{"-work", "NaN"},
		{"-work", "+Inf"},
		{"-coordination", "uncoordinated", "-rack-budget-w", "NaN"},
	} {
		if _, code := runOut(t, args...); code != 2 {
			t.Errorf("%v should exit 2, got %d", args, code)
		}
	}
}

func TestBadRackFlagsFail(t *testing.T) {
	if _, code := runOut(t, "-coordination", "nope"); code != 2 {
		t.Errorf("bad coordination should exit 2, got %d", code)
	}
	if _, code := runOut(t, "-coordination", "uncoordinated", "-rack-size", "-2"); code != 1 {
		t.Errorf("invalid rack config should exit 1, got %d", code)
	}
}

// TestHedgeSuppressionReported drives an overloaded hedged fleet and
// checks the suppressed-hedge count reaches the report (the bugfix for
// hedges that silently vanished when no node had spare capacity).
func TestHedgeSuppressionReported(t *testing.T) {
	out, code := runOut(t, "-nodes", "4", "-requests", "2000", "-policy", "hedged",
		"-queue", "2", "-rate", "4")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "suppressed (no spare capacity)") {
		t.Errorf("output missing the suppressed-hedge count:\n%s", out)
	}
}

// TestProfileFlags exercises -cpuprofile/-memprofile in every mode: both
// files must be created non-empty and the run must still succeed.
func TestProfileFlags(t *testing.T) {
	sp := writeScenario(t, flashScenario)
	wp := writeWorkload(t)
	var rows strings.Builder
	rows.WriteString("arrival_s,work_s\n")
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&rows, "%g,%g\n", 0.5*float64(i), 1+float64(i%3))
	}
	tp := filepath.Join(t.TempDir(), "trace.csv")
	if err := os.WriteFile(tp, []byte(rows.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		args []string
	}{
		{"synthetic", []string{"-nodes", "4", "-requests", "500"}},
		{"scenario", []string{"-scenario", sp}},
		{"workload", []string{"-nodes", "4", "-workload", wp}},
		{"workload+scenario", []string{"-workload", wp, "-scenario", sp}},
		{"replay", []string{"-nodes", "4", "-replay", tp, "-coordination", "none"}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			dir := t.TempDir()
			cpu := filepath.Join(dir, "cpu.pprof")
			mem := filepath.Join(dir, "mem.pprof")
			_, code := runOut(t, append(mode.args, "-policy", "least-loaded",
				"-cpuprofile", cpu, "-memprofile", mem)...)
			if code != 0 {
				t.Fatalf("exit %d", code)
			}
			for _, p := range []string{cpu, mem} {
				st, err := os.Stat(p)
				if err != nil {
					t.Fatalf("profile %s missing: %v", p, err)
				}
				if st.Size() == 0 {
					t.Errorf("profile %s is empty", p)
				}
			}
		})
	}
}

// TestExactQuantilesFlag: the flag must parse and the sweep still run;
// with a small trace both modes are exact so the output is unchanged.
func TestExactQuantilesFlag(t *testing.T) {
	base, code := runOut(t, "-nodes", "4", "-requests", "300", "-policy", "sprint-aware")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	exact, code := runOut(t, "-nodes", "4", "-requests", "300", "-policy", "sprint-aware", "-exact-quantiles")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if base != exact {
		t.Errorf("small traces are exact either way; output differed:\n%s\n---\n%s", base, exact)
	}
}

// TestIncoherentFlagCombinationsRejected pins the flag-coherence errors:
// a flag that parameterizes a subsystem the other flags switched off is
// rejected loudly instead of silently ignored.
func TestIncoherentFlagCombinationsRejected(t *testing.T) {
	cases := [][]string{
		{"-permits", "4"}, // permits without token-permit
		{"-permits", "4", "-coordination", "uncoordinated"},
		{"-rack-size", "16"}, // rack flags without coordination
		{"-rack-budget-w", "31"},
		{"-rack-buffer-j", "50"},
		{"-recovery-s", "3"},
		{"-hedge-s", "0.5", "-policy", "sprint-aware"}, // hedge delay without hedging
	}
	for _, args := range cases {
		var out, errb bytes.Buffer
		if code := run(context.Background(), args, &out, &errb); code != 2 {
			t.Errorf("%v: want exit 2, got %d (stderr: %s)", args, code, errb.String())
		}
	}
	// The same flags are accepted when the subsystem is on (or "all"
	// includes it).
	good := [][]string{
		{"-nodes", "4", "-requests", "200", "-permits", "2", "-coordination", "token-permit"},
		{"-nodes", "4", "-requests", "200", "-permits", "2", "-coordination", "all", "-policy", "sprint-aware"},
		{"-nodes", "4", "-requests", "200", "-hedge-s", "0.5", "-policy", "hedged"},
		{"-nodes", "4", "-requests", "200", "-rack-size", "4", "-coordination", "uncoordinated", "-policy", "sprint-aware"},
	}
	for _, args := range good {
		var out, errb bytes.Buffer
		if code := run(context.Background(), args, &out, &errb); code != 0 {
			t.Errorf("%v: want exit 0, got %d (stderr: %s)", args, code, errb.String())
		}
	}
}

// writeWorkload drops the tinyWorkload spec file for the CLI tests.
func writeWorkload(t *testing.T) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "w.json")
	if err := os.WriteFile(p, []byte(tinyWorkload), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// writeScenario drops a scenario file for the CLI tests.
func writeScenario(t *testing.T, body string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "scenario.json")
	if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

const flashScenario = `{
  "base_rate_per_s": 7.2,
  "phases": [
    {"name": "baseline", "duration_s": 60, "start_factor": 0.7},
    {"name": "surge", "duration_s": 40, "start_factor": 2.0},
    {"name": "recovery", "duration_s": 60, "shape": "decay", "start_factor": 2.0, "end_factor": 0.5}
  ],
  "churn": {"mtbf_s": 20, "mean_downtime_s": 5}
}`

// TestScenarioMode drives -scenario end to end: the report switches to
// per-phase sections with the scenario's phase names and an overall line.
func TestScenarioMode(t *testing.T) {
	p := writeScenario(t, flashScenario)
	out, code := runOut(t, "-scenario", p, "-policy", "sprint-aware")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	for _, want := range []string{"3 phases over 160 s", "baseline", "surge", "recovery", "overall:", "failures", "redisp"} {
		if !strings.Contains(out, want) {
			t.Errorf("scenario report missing %q:\n%s", want, out)
		}
	}
}

// TestScenarioWorkerCountDoesNotChangeOutput is the acceptance-criteria
// determinism check at the binary level: a flash-crowd + churn scenario
// sweep renders byte-identical reports at every worker count.
func TestScenarioWorkerCountDoesNotChangeOutput(t *testing.T) {
	p := writeScenario(t, flashScenario)
	args := []string{"-scenario", p, "-policy", "all", "-coordination", "all", "-seed", "9"}
	serial, code := runOut(t, append(args, "-workers", "1")...)
	if code != 0 {
		t.Fatalf("serial exit %d", code)
	}
	wide, code := runOut(t, append(args, "-workers", "8")...)
	if code != 0 {
		t.Fatalf("wide exit %d", code)
	}
	if serial != wide {
		t.Errorf("workers=1 and workers=8 differ:\n--- serial ---\n%s\n--- wide ---\n%s", serial, wide)
	}
}

// TestScenarioFlagErrors: the scenario file owns the load profile, so
// -requests/-rate are rejected; unreadable files, malformed JSON, unknown
// fields, and invalid scenarios all fail with distinct diagnostics.
func TestScenarioFlagErrors(t *testing.T) {
	p := writeScenario(t, flashScenario)
	if _, code := runOut(t, "-scenario", p, "-requests", "100"); code != 2 {
		t.Errorf("-scenario with -requests should exit 2, got %d", code)
	}
	if _, code := runOut(t, "-scenario", p, "-rate", "3"); code != 2 {
		t.Errorf("-scenario with -rate should exit 2, got %d", code)
	}
	if _, code := runOut(t, "-scenario", filepath.Join(t.TempDir(), "missing.json")); code != 1 {
		t.Errorf("missing scenario file should exit 1, got %d", code)
	}
	if _, code := runOut(t, "-scenario", writeScenario(t, "{not json")); code != 1 {
		t.Errorf("malformed JSON should exit 1, got %d", code)
	}
	if _, code := runOut(t, "-scenario", writeScenario(t, `{"phases": [{"duration_s": 10}], "bogus_field": 1}`)); code != 1 {
		t.Errorf("unknown scenario field should exit 1, got %d", code)
	}
	if _, code := runOut(t, "-scenario", writeScenario(t, `{"phases": []}`)); code != 1 {
		t.Errorf("phase-free scenario should exit 1, got %d", code)
	}
}

// TestScenarioClassNodesConflict: an explicit -nodes that disagrees with
// the scenario's class counts is rejected like the other scenario
// conflicts, never silently overridden.
func TestScenarioClassNodesConflict(t *testing.T) {
	p := writeScenario(t, `{
  "phases": [{"name": "steady", "duration_s": 30}],
  "classes": [{"name": "a", "count": 4}, {"name": "b", "count": 4}]
}`)
	if _, code := runOut(t, "-scenario", p, "-nodes", "500"); code != 2 {
		t.Errorf("-nodes conflicting with class counts should exit 2, got %d", code)
	}
	// Matching -nodes, or omitting it, both run.
	if out, code := runOut(t, "-scenario", p, "-nodes", "8"); code != 0 {
		t.Errorf("matching -nodes should run, got exit %d:\n%s", code, out)
	}
	if out, code := runOut(t, "-scenario", p); code != 0 || !strings.Contains(out, "8 nodes") {
		t.Errorf("class-derived fleet should report 8 nodes (exit %d):\n%s", code, out)
	}
}

// TestTraceFlagCoherence extends the coherence contract to the flight
// recorder: every knob that parameterizes it demands -trace, and -trace
// itself demands a single concrete policy × coordination.
func TestTraceFlagCoherence(t *testing.T) {
	cases := [][]string{
		{"-trace-level", "full"}, // recorder knobs without -trace
		{"-counterfactual-k", "5"},
		{"-timeline-window-s", "2"},
		{"-trace-summary"},
		{"-trace", "out.jsonl"}, // default -policy all
		{"-trace", "out.jsonl", "-policy", "sprint-aware", "-coordination", "all"},
		{"-trace", "out.jsonl", "-policy", "hedged", "-trace-level", "off"},
		{"-trace", "out.jsonl", "-policy", "hedged", "-trace-level", "bogus"},
	}
	for _, args := range cases {
		var out, errb bytes.Buffer
		if code := run(context.Background(), args, &out, &errb); code != 2 {
			t.Errorf("%v: want exit 2, got %d (stderr: %s)", args, code, errb.String())
		}
	}
}

// TestTraceOutput drives -trace end to end: the JSONL file leads with the
// meta header, carries one record per line, and -trace-summary appends
// the regret table and the p99 sparkline to the report.
func TestTraceOutput(t *testing.T) {
	p := filepath.Join(t.TempDir(), "out.jsonl")
	out, code := runOut(t, "-nodes", "4", "-requests", "300", "-policy", "sprint-aware",
		"-trace", p, "-trace-level", "full", "-counterfactual-k", "2", "-timeline-window-s", "2",
		"-trace-summary")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatalf("trace file missing: %v", err)
	}
	if !bytes.HasPrefix(data, []byte(`{"t":"meta"`)) {
		t.Errorf("trace does not lead with the meta header: %.80s", data)
	}
	lines := bytes.Count(data, []byte("\n"))
	if lines < 300 {
		t.Errorf("trace has %d lines; want at least one per request", lines)
	}
	for _, want := range []string{"trace " + p, "p99 per 2s window:", "regret"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
	// The report table itself is unchanged by tracing.
	plain, code := runOut(t, "-nodes", "4", "-requests", "300", "-policy", "sprint-aware")
	if code != 0 {
		t.Fatalf("plain exit %d", code)
	}
	if !strings.HasPrefix(out, plain[:strings.Index(plain, "\nsprint-aware dispatch routes")]) {
		t.Errorf("traced report diverges from the untraced one:\n%s\n---\n%s", out, plain)
	}
}

// TestTraceScenarioOutput: tracing composes with -scenario — the per-phase
// report still renders, and the trace file carries the phase annotations.
func TestTraceScenarioOutput(t *testing.T) {
	sp := writeScenario(t, flashScenario)
	p := filepath.Join(t.TempDir(), "flash.jsonl")
	out, code := runOut(t, "-scenario", sp, "-policy", "sprint-aware", "-coordination", "token-permit",
		"-trace", p, "-trace-summary")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	for _, want := range []string{"baseline", "surge", "recovery", "overall:", "p99 per 5s window:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatalf("trace file missing: %v", err)
	}
	for _, want := range []string{`"kind":"phase-start"`, `"name":"surge"`, `"kind":"node-fail"`} {
		if !bytes.Contains(data, []byte(want)) {
			t.Errorf("scenario trace missing %s", want)
		}
	}
}

// TestReliabilityFlagCoherence extends the coherence contract to the
// reliability layer: retry knobs demand a retry trigger (-timeout-s or
// -fault-prob), -retry-burst demands -retry-budget, and -gray-slowdown
// demands -gray-frac.
func TestReliabilityFlagCoherence(t *testing.T) {
	cases := [][]string{
		{"-max-retries", "3"}, // retry knobs with nothing to trigger them
		{"-retry-backoff-s", "0.2"},
		{"-retry-budget", "5"},
		{"-retry-burst", "10", "-timeout-s", "4"}, // burst without a budget
		{"-gray-slowdown", "8"},                   // slowdown without gray nodes
		{"-timeout-s", "-1"},                      // invalid values reach Validate via exit 1, not 2
	}
	for _, args := range cases[:len(cases)-1] {
		var out, errb bytes.Buffer
		if code := run(context.Background(), args, &out, &errb); code != 2 {
			t.Errorf("%v: want exit 2, got %d (stderr: %s)", args, code, errb.String())
		}
	}
	if _, code := runOut(t, "-nodes", "4", "-requests", "100", "-timeout-s", "-1"); code != 1 {
		t.Errorf("negative -timeout-s should exit 1 via Validate, got %d", code)
	}
	good := [][]string{
		{"-nodes", "4", "-requests", "200", "-timeout-s", "5", "-max-retries", "2", "-retry-budget", "5", "-retry-burst", "10"},
		{"-nodes", "4", "-requests", "200", "-fault-prob", "0.05", "-max-retries", "2"},
		{"-nodes", "4", "-requests", "200", "-gray-frac", "0.25", "-gray-slowdown", "6"},
	}
	for _, args := range good {
		var out, errb bytes.Buffer
		if code := run(context.Background(), args, &out, &errb); code != 0 {
			t.Errorf("%v: want exit 0, got %d (stderr: %s)", args, code, errb.String())
		}
	}
}

// TestReliabilityReported drives fault injection end to end: gray nodes
// plus a tight timeout must surface the reliability line with goodput,
// retry, and gray-node counts.
func TestReliabilityReported(t *testing.T) {
	out, code := runOut(t, "-nodes", "4", "-requests", "800", "-policy", "least-loaded",
		"-gray-frac", "0.5", "-gray-slowdown", "8", "-timeout-s", "4", "-max-retries", "2")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	for _, want := range []string{"goodput", "timed out", "shed", "amplification", "2 gray nodes"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestTraceUnwritablePathFails: a trace destination that cannot be
// created fails the run after simulation with exit 1.
func TestTraceUnwritablePathFails(t *testing.T) {
	if _, code := runOut(t, "-nodes", "4", "-requests", "100", "-policy", "sprint-aware",
		"-trace", filepath.Join(t.TempDir(), "no", "such", "dir", "out.jsonl")); code != 1 {
		t.Errorf("unwritable trace path should exit 1, got %d", code)
	}
}

// TestTraceReplayAndWorkload: -trace composes with -replay and -workload.
// The recorder observes, never steers, so each traced report is the
// untraced one byte for byte, and a traced replay's recording converts
// back to exactly the rows it replayed.
func TestTraceReplayAndWorkload(t *testing.T) {
	dir := t.TempDir()
	rec := filepath.Join(dir, "rec.jsonl")
	if _, code := runOut(t, "-nodes", "4", "-requests", "400", "-policy", "sprint-aware",
		"-trace", rec); code != 0 {
		t.Fatalf("record exit %d", code)
	}
	rows := filepath.Join(dir, "rows.csv")
	if _, code := runOut(t, "-convert-trace", rec, "-replay-out", rows); code != 0 {
		t.Fatalf("convert exit %d", code)
	}

	replay := []string{"-nodes", "4", "-policy", "sprint-aware", "-coordination", "none", "-replay", rows}
	plain, code := runOut(t, replay...)
	if code != 0 {
		t.Fatalf("replay exit %d", code)
	}
	replayRec := filepath.Join(dir, "replay.jsonl")
	traced, code := runOut(t, append(replay, "-trace", replayRec)...)
	if code != 0 {
		t.Fatalf("traced replay exit %d", code)
	}
	if traced != plain {
		t.Errorf("traced replay report differs from the untraced one:\n%s\n---\n%s", traced, plain)
	}
	back := filepath.Join(dir, "back.csv")
	if _, code := runOut(t, "-convert-trace", replayRec, "-replay-out", back); code != 0 {
		t.Fatalf("convert of the replay recording exit %d", code)
	}
	if want, got := readRows(t, rows), readRows(t, back); !reflect.DeepEqual(got, want) {
		t.Errorf("replay recording converts to %d rows that differ from the %d replayed", len(got), len(want))
	}

	workload := []string{"-nodes", "4", "-policy", "sprint-aware", "-workload", writeWorkload(t)}
	plain, code = runOut(t, workload...)
	if code != 0 {
		t.Fatalf("workload exit %d", code)
	}
	workloadRec := filepath.Join(dir, "workload.jsonl")
	traced, code = runOut(t, append(workload, "-trace", workloadRec, "-trace-level", "full")...)
	if code != 0 {
		t.Fatalf("traced workload exit %d", code)
	}
	if traced != plain {
		t.Errorf("traced workload report differs from the untraced one:\n%s\n---\n%s", traced, plain)
	}
	data, err := os.ReadFile(workloadRec)
	if err != nil {
		t.Fatalf("workload recording missing: %v", err)
	}
	if !bytes.HasPrefix(data, []byte(`{"t":"meta"`)) || bytes.Count(data, []byte("\n")) < 2 {
		t.Errorf("workload recording is not a meta header plus records: %.80s", data)
	}
}

// readRows parses a request-trace file.
func readRows(t *testing.T, path string) []sprinting.TraceRequest {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := sprinting.ParseRequestTrace(f)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return rows
}

// TestReplayWorkloadFlagCoherence: replay and workload runs own their
// load profile, so load-shaping flags, multi-run sweeps, and each other
// are rejected up front with exit 2; -convert-trace and -replay-out are
// a pair.
func TestReplayWorkloadFlagCoherence(t *testing.T) {
	cases := [][]string{
		{"-replay", "t.csv"}, // default -policy all: replay wants one run
		{"-replay", "t.csv", "-policy", "sprint-aware", "-coordination", "all"},
		{"-replay", "t.csv", "-policy", "sprint-aware", "-requests", "100"},
		{"-replay", "t.csv", "-policy", "sprint-aware", "-rate", "2"},
		{"-replay", "t.csv", "-policy", "sprint-aware", "-workload", "w.json"},
		{"-replay", "t.csv", "-policy", "sprint-aware", "-scenario", "s.json"},
		{"-workload", "w.json", "-requests", "100"},
		{"-workload", "w.json", "-work", "2"},
		{"-convert-trace", "rec.jsonl"}, // missing -replay-out
		{"-replay-out", "t.csv"},        // missing -convert-trace
		{"-convert-trace", "rec.jsonl", "-replay-out", "t.csv", "-trace", "x.jsonl"},
	}
	for _, args := range cases {
		var out, errb bytes.Buffer
		if code := run(context.Background(), args, &out, &errb); code != 2 {
			t.Errorf("%v: want exit 2, got %d (stderr: %s)", args, code, errb.String())
		}
	}
	// Missing or malformed inputs are runtime errors (exit 1), not usage.
	if _, code := runOut(t, "-replay", filepath.Join(t.TempDir(), "absent.csv"),
		"-policy", "sprint-aware", "-coordination", "none"); code != 1 {
		t.Errorf("absent replay trace: want exit 1, got %d", code)
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"classes": [], "bogus": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, code := runOut(t, "-workload", bad); code != 1 {
		t.Errorf("unknown workload field: want exit 1, got %d", code)
	}
}

// TestConvertReplayRoundTrip closes the record→replay loop at the CLI:
// record a run, convert the recording, and replay it — the replay report
// is byte-identical at every -shard-workers count.
func TestConvertReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	rec := filepath.Join(dir, "rec.jsonl")
	if _, code := runOut(t, "-nodes", "4", "-requests", "400", "-policy", "sprint-aware",
		"-trace", rec); code != 0 {
		t.Fatalf("record exit %d", code)
	}
	trace := filepath.Join(dir, "trace.csv")
	out, code := runOut(t, "-convert-trace", rec, "-replay-out", trace)
	if code != 0 {
		t.Fatalf("convert exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "converted") || !strings.Contains(out, "400 replayable arrivals") {
		t.Errorf("convert summary missing counts:\n%s", out)
	}
	var reports []string
	for _, w := range []string{"1", "4"} {
		r, code := runOut(t, "-nodes", "4", "-policy", "sprint-aware", "-coordination", "none",
			"-replay", trace, "-shard-workers", w)
		if code != 0 {
			t.Fatalf("replay (workers %s) exit %d:\n%s", w, code, r)
		}
		reports = append(reports, r)
	}
	if reports[0] != reports[1] {
		t.Errorf("replay report changes with -shard-workers:\n%s\n---\n%s", reports[0], reports[1])
	}
	for _, want := range []string{"replay " + trace, "400 recorded arrivals", "sprint-aware"} {
		if !strings.Contains(reports[0], want) {
			t.Errorf("replay report missing %q:\n%s", want, reports[0])
		}
	}
}

const tinyWorkload = `{
  "classes": [
    {"name": "interactive", "priority": 0, "target_p99_s": 2.0},
    {"name": "batch", "priority": 5}
  ],
  "tenants": [
    {"name": "search", "class": "interactive",
     "arrival": {"process": "poisson", "rate_per_s": 2.0},
     "work": {"dist": "exp", "mean_s": 1.0}},
    {"name": "analytics", "class": "batch",
     "arrival": {"process": "poisson", "rate_per_s": 1.0},
     "work": {"dist": "exp", "mean_s": 2.0}}
  ],
  "discipline": "priority",
  "duration_s": 150
}`

// TestWorkloadMode drives -workload end to end: the header names the
// spec, and the report carries a per-class block with SLO attainment and
// the fairness line.
func TestWorkloadMode(t *testing.T) {
	p := writeWorkload(t)
	out, code := runOut(t, "-nodes", "4", "-policy", "sprint-aware", "-workload", p)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	for _, want := range []string{"workload " + p, "2 classes, 2 tenants",
		"interactive", "batch", "Jain fairness"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	wide, code := runOut(t, "-nodes", "4", "-policy", "sprint-aware", "-workload", p,
		"-shard-workers", "4")
	if code != 0 {
		t.Fatalf("wide exit %d", code)
	}
	if out != wide {
		t.Errorf("workload report changes with -shard-workers:\n%s\n---\n%s", out, wide)
	}
}

// TestWorkloadScenarioMode: a workload spec rides a scenario's phases —
// the per-phase report renders and each run ends with the per-class
// block.
func TestWorkloadScenarioMode(t *testing.T) {
	sp := writeScenario(t, flashScenario)
	wp := writeWorkload(t)
	out, code := runOut(t, "-scenario", sp, "-workload", wp,
		"-policy", "sprint-aware", "-coordination", "token-permit")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	for _, want := range []string{"baseline", "surge", "recovery", "overall:",
		"interactive", "batch", "Jain fairness"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}
