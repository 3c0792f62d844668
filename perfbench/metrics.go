package main

// metric is one reported number. moves records, before any change is
// measured, which end-to-end metric a per-layer metric should move and
// on which workloads.
type metric struct {
	name, unit, better string
	moves              string
}

// endToEnd are measured with spans and profiling off. Each is defined on
// every workload and never 0.
var endToEnd = []metric{
	{name: "wall_s", unit: "s", better: "lower"},
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "alloc_mb", unit: "MB", better: "lower"},
	{name: "peak_rss_mb", unit: "MB", better: "lower"},
}

// perLayer come from the traced run: span timers around public calls,
// counts from the returned structs, and CPU-profile shares.
var perLayer = append([]metric{
	{"sim_req_per_s", "req/s", "higher", "wall_s on fleet_scale, policy_sweep and record_replay: requests offered per host second inside untraced Simulate calls"},
	{"sim_minstr_per_s", "Minstr/s", "higher", "wall_s on paper_cosim: simulated compute, load and store ops per host second inside core.Run"},
	{"trace_overhead_x", "x", "lower", "wall_s and alloc_mb on record_replay: traced over untraced simulate time, same config (0 elsewhere)"},
	{"failed_frac", "fraction", "lower", "every workload: program calls that returned an error or failed their output check"},

	{"session.generate_s", "s", "lower", "setup_s and alloc_mb: most on fleet_scale, a little on policy_sweep"},
	{"fleet.simulate_s", "s", "lower", "wall_s and sim_req_per_s on fleet_scale, policy_sweep and record_replay"},
	{"fleet.ns_per_req", "ns", "lower", "wall_s and sim_req_per_s on fleet_scale, policy_sweep and record_replay"},
	{"fleet.ns_per_service", "ns", "lower", "wall_s and sim_req_per_s on fleet_scale, policy_sweep and record_replay"},
	{"fleet.traced_simulate_s", "s", "lower", "trace_overhead_x, wall_s and alloc_mb on record_replay; 0 elsewhere pins zero cost when off"},
	{"trace.write_s", "s", "lower", "wall_s and alloc_mb on record_replay; 0 elsewhere"},
	{"trace.read_s", "s", "lower", "wall_s and alloc_mb on record_replay; 0 elsewhere"},
	{"fleet.convert_s", "s", "lower", "wall_s and alloc_mb on record_replay; 0 elsewhere"},
	{"fleet.replay_s", "s", "lower", "wall_s and alloc_mb on record_replay; 0 elsewhere"},
	{"engine.busy_s", "s", "lower", "wall_s on policy_sweep and paper_cosim"},
	{"engine.idle_frac", "fraction", "lower", "wall_s on policy_sweep and paper_cosim: 1 - point time / (workers x pool wall)"},
	{"workloads.build_s", "s", "lower", "wall_s and setup_s on paper_cosim"},
	{"core.run_s", "s", "lower", "wall_s and sim_minstr_per_s on paper_cosim"},
	{"workloads.verify_s", "s", "lower", "wall_s on paper_cosim"},
	{"governor.serve_ns", "ns", "lower", "sim_req_per_s and wall_s on fleet_scale: the governor calls of one service, timed alone"},
	{"series.observe_ns", "ns", "lower", "sim_req_per_s and wall_s on fleet_scale: one streaming-histogram Observe, timed alone"},

	{"fleet.requests", "count", "higher", "counts the work behind sim_req_per_s on the fleet workloads"},
	{"fleet.services", "count", "lower", "service executions incl. hedge copies and retries; more per request is waste"},
	{"fleet.dropped", "count", "lower", "requests bounced off full queues"},
	{"rack.permit_requests", "count", "lower", "sprint admissions asked of racks"},
	{"rack.permit_denial_rate", "fraction", "lower", "rack sprint refusals per request"},
	{"rack.breaker_trips", "count", "lower", "branch-breaker trips"},
	{"fleet.hedges_issued", "count", "lower", "hedge copies dispatched (policy_sweep)"},
	{"fleet.hedge_win_ratio", "fraction", "higher", "useful hedge copies per copy issued (policy_sweep)"},
	{"reliability.retries", "count", "lower", "retry attempts (record_replay)"},
	{"reliability.useful_service_ratio", "fraction", "higher", "completed requests per service executed"},
	{"trace.records", "count", "lower", "trace_overhead_x, trace.write_s and trace.read_s on record_replay"},
	{"trace.bytes", "B", "lower", "trace.write_s, trace.read_s and alloc_mb on record_replay"},
	{"engine.points", "count", "higher", "points per pool fan-out (policy_sweep, paper_cosim)"},
	{"archsim.minstr", "Minstr", "higher", "the work behind sim_minstr_per_s on paper_cosim"},
	{"mem.l1_miss_rate", "fraction", "lower", "core.run_s on paper_cosim"},
	{"mem.llc_miss_rate", "fraction", "lower", "core.run_s on paper_cosim"},

	{"bench.span_overhead_frac", "fraction", "lower", "wall time added by the harness's spans and the CPU profile"},
	{"bench.iterations", "count", "higher", "traced iterations the per-layer medians are taken over"},
	{"bench.profile_samples", "count", "higher", "CPU-profile samples the shares are taken over"},
}, shareMetrics()...)

// shareMetrics names one CPU-share metric per layer of the profile table.
func shareMetrics() []metric {
	var out []metric
	for _, l := range layers() {
		out = append(out, metric{l + ".cpu_share", "fraction", "lower", shareMoves[l]})
	}
	return out
}

// shareMoves states which end-to-end metric each layer's CPU share
// should move, on which workload.
var shareMoves = map[string]string{
	"fleet.index":       "wall_s on fleet_scale (largest there), policy_sweep",
	"fleet.heap":        "wall_s on policy_sweep (largest there), fleet_scale",
	"fleet.rack":        "wall_s on fleet_scale and policy_sweep",
	"fleet.finish":      "wall_s on policy_sweep (exact-quantile sort below 2^17 requests)",
	"fleet.recorder":    "trace_overhead_x and wall_s on record_replay only",
	"fleet.reliability": "wall_s on record_replay only",
	"fleet.workload":    "wall_s on policy_sweep (tenants) and record_replay (replay)",
	"fleet.scenario":    "wall_s on policy_sweep (flash crowd)",
	"fleet.loop":        "wall_s on every fleet workload: arrival cursor, dispatch and service handlers",
	"governor":          "wall_s on every fleet workload",
	"session":           "setup_s and wall_s on fleet_scale and policy_sweep",
	"series":            "wall_s on fleet_scale (streaming histogram)",
	"trace":             "wall_s and alloc_mb on record_replay only (JSONL codec)",
	"engine":            "wall_s on policy_sweep and paper_cosim",
	"archsim":           "wall_s and sim_minstr_per_s on paper_cosim only",
	"cpu":               "wall_s and sim_minstr_per_s on paper_cosim only",
	"mem":               "wall_s and sim_minstr_per_s on paper_cosim only",
	"energy":            "wall_s and sim_minstr_per_s on paper_cosim only (per-op energy accounting)",
	"thermal":           "wall_s on paper_cosim only",
	"rt":                "wall_s on paper_cosim only",
	"isa":               "wall_s on paper_cosim only",
	"core":              "wall_s on paper_cosim only",
	"workloads":         "wall_s on paper_cosim only (kernel compute and input build)",
	"runtime.gc":        "wall_s and alloc_mb on every workload",
	"bench":             "harness overhead inside the job; should stay near 0",
	"other":             "unattributed; should stay near 0",
}
