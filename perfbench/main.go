// Command perfbench is the repository's benchmark: it runs one named
// workload of the simulator for a fixed time, checks every output, and
// prints its metrics, the last line as one JSON object.
//
//	bash perfbench/run.sh --workload fleet_scale --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of metrics.go,
// measured with spans and profiling off. With --trace 1 it reports the
// per-layer metrics: half the time runs plain, half with the harness's
// spans and a CPU profile on, and spans and profile are written under
// .bench_build/perfbench. Each iteration is one whole job run back to
// back with the last (a closed loop, one job at a time); output checks
// run between iterations, outside the timed region.
package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

// defaultSeed is the default --seed. digests.json pins the outputs of
// seeds 0 to 10; seed 7919 is held out: no tuning of the benchmark used
// it, so a claimed gain should be re-checked on it.
const defaultSeed = 1

// digestFile is where -write-digests records output digests; outDir
// receives the traced run's spans and CPU profile. Both are relative to
// the checkout's root, where the benchmark runs.
const (
	digestFile = "perfbench/digests.json"
	outDir     = ".bench_build/perfbench"
)

// setupRuns is how many fresh processes each end-to-end run sets the
// workload up in; setup_s is their median.
const setupRuns = 15

//go:embed digests.json
var digestsJSON []byte

func main() { os.Exit(run()) }

func run() int {
	var (
		workload     = flag.String("workload", "", "workload to run: fleet_scale, policy_sweep, record_replay or paper_cosim")
		seed         = flag.Int64("seed", defaultSeed, "seed every input is generated from")
		seconds      = flag.Float64("seconds", 10, "how long to measure")
		traced       = flag.Int("trace", 0, "1 reports the per-layer metrics from a run with spans and a CPU profile")
		setupProbe   = flag.Bool("setup-probe", false, "set up, print the wall clock in ns and exit (used by the parent run)")
		writeDigests = flag.Bool("write-digests", false, "run one iteration and record its output digests in "+digestFile)
	)
	flag.Parse()
	runtime.GOMAXPROCS(width)

	if *setupProbe {
		if _, err := newJob(*workload, *seed, ".", 1); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		fmt.Println(time.Now().UnixNano())
		return 0
	}

	pinned := map[string]string{}
	if err := json.Unmarshal(digestsJSON, &pinned); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: digests.json:", err)
		return 1
	}
	fmt.Println(hostFacts())
	fmt.Printf("workload %s, seed %d, %g s, trace %d\n", *workload, *seed, *seconds, *traced)

	var setups []float64
	if *traced == 0 && !*writeDigests {
		var err error
		if setups, err = setupTimes(*workload, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: set-up run:", err)
			return 1
		}
	}

	j, err := newJob(*workload, *seed, ".", 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	c := &checker{workload: *workload, seed: *seed, pinned: pinned}

	if *writeDigests {
		j.run(nil)
		return writeDigestFile(digestFile, *workload, *seed, j.check())
	}

	// Warm-up: lazy first-call work finishes before timing.
	j.run(nil)
	c.check(j)

	metrics := map[string]float64{}
	if *traced == 0 {
		its := measure(j, c, *seconds, nil)
		walls, allocs := column(its, func(s iterStats) float64 { return s.wallS }), column(its, func(s iterStats) float64 { return s.allocMB })
		wall := median(walls)
		metrics["wall_s"] = wall
		metrics["setup_s"] = median(setups)
		metrics["alloc_mb"] = mean(allocs)
		metrics["peak_rss_mb"] = peakRSSMB()
		fmt.Printf("wall_s      %.4f s   median of %d iterations %v\n", wall, len(walls), roundAll(walls))
		fmt.Printf("setup_s     %.4f s   median of %d set-ups %v\n", metrics["setup_s"], len(setups), roundAll(setups))
		fmt.Printf("alloc_mb    %.2f MB  mean of %d iterations %v\n", metrics["alloc_mb"], len(allocs), roundAll(allocs))
		fmt.Printf("peak_rss_mb %.1f MB\n", metrics["peak_rss_mb"])
		fmt.Printf("failed_frac %g  of %d program calls\n", ratio(float64(c.failed), float64(c.attempted)), c.attempted)
	} else {
		var err error
		if metrics, err = tracedRun(j, c, *workload, *seed, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	list := endToEnd
	if *traced != 0 {
		list = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed, Metrics: map[string]value{}}
	for _, m := range list {
		out.Metrics[m.name] = value{metrics[m.name], m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if c.failed > 0 {
		return 1
	}
	return 0
}

// hostFacts describes the machine every number was measured on.
func hostFacts() string {
	model := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("host: nproc=%d GOMAXPROCS=%d go=%s cpu=%q", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), model)
}

// setupTimes sets the workload up in setupRuns fresh processes and
// returns, for each, the host seconds from spawning it until it is ready
// to make its first program call: process start, package init, spec
// decoding and input construction.
func setupTimes(workload string, seed int64) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < setupRuns; i++ {
		cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10), "-setup-probe")
		cmd.Stderr = os.Stderr
		spawn := time.Now().UnixNano()
		stdout, err := cmd.Output()
		if err != nil {
			return nil, err
		}
		ready, err := strconv.ParseInt(strings.TrimSpace(string(stdout)), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("set-up run printed %q", stdout)
		}
		out = append(out, float64(ready-spawn)/1e9)
	}
	return out, nil
}

// checker counts program calls and failed checks over a run.
type checker struct {
	workload  string
	seed      int64
	pinned    map[string]string
	attempted int
	failed    int
}

// check judges the last iteration's outputs: call errors, invariants,
// and, for a seed digests.json pins, every output's digest.
func (c *checker) check(j job) {
	prefix := fmt.Sprintf("%s/%d/", c.workload, c.seed)
	seedPinned := false
	for k := range c.pinned {
		if strings.HasPrefix(k, prefix) {
			seedPinned = true
			break
		}
	}
	for _, r := range j.check() {
		c.attempted++
		err := r.err
		if err == nil && seedPinned {
			if want, ok := c.pinned[prefix+r.id]; !ok {
				err = fmt.Errorf("no pinned digest")
			} else if got := r.digest(); got != want {
				err = fmt.Errorf("output digest %s, pinned %s; output:\n%s", got, want, head(r.canon, 12))
			}
		}
		if err != nil {
			c.failed++
			if c.failed <= 5 {
				fmt.Fprintf(os.Stderr, "perfbench: %s: %s: %v\n", c.workload, r.id, err)
			}
		}
	}
}

func head(s string, lines int) string {
	parts := strings.SplitN(s, "\n", lines+1)
	if len(parts) > lines {
		parts = parts[:lines]
	}
	return strings.Join(parts, "\n")
}

// writeDigestFile merges one workload's digests for one seed into the
// digest file.
func writeDigestFile(path, workload string, seed int64, results []callResult) int {
	pinned := map[string]string{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &pinned); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	prefix := fmt.Sprintf("%s/%d/", workload, seed)
	for k := range pinned {
		if strings.HasPrefix(k, prefix) {
			delete(pinned, k)
		}
	}
	for _, r := range results {
		if r.err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.id, r.err)
			return 1
		}
		pinned[prefix+r.id] = r.digest()
	}
	data, err := json.MarshalIndent(pinned, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

type iterStats struct{ wallS, allocMB float64 }

// measure runs iterations back to back for seconds, stopping before an
// iteration that would likely end past it (but running at least one),
// and checks each one's outputs outside the timed region. With tr set,
// spans are recorded and the job runs under the profile label.
func measure(j job, c *checker, seconds float64, tr *tracer) []iterStats {
	var its []iterStats
	start := time.Now()
	for len(its) == 0 || time.Since(start).Seconds()+median(column(its, func(s iterStats) float64 { return s.wallS })) <= seconds {
		// Two collections empty every sync.Pool, so each iteration starts
		// from the same heap: no garbage of the last one, and no pooled
		// request arenas, whose reuse would otherwise hinge on when the
		// collector happened to run.
		runtime.GC()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t := time.Now()
		if tr != nil {
			pprof.Do(context.Background(), pprof.Labels(jobLabel, "job"), func(context.Context) { j.run(tr) })
		} else {
			j.run(tr)
		}
		wall := time.Since(t).Seconds()
		runtime.ReadMemStats(&after)
		its = append(its, iterStats{wall, float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)})
		if tr != nil {
			tr.nextIter()
		}
		c.check(j)
	}
	return its
}

// tracedRun measures half the time plain and half with spans and the CPU
// profile on, and derives the per-layer metrics.
func tracedRun(j job, c *checker, workload string, seed int64, seconds float64) (map[string]float64, error) {
	plain := measure(j, c, seconds/2, nil)

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	tr := newTracer()
	spanned := measure(j, c, seconds/2, tr)
	pprof.StopCPUProfile()

	base := fmt.Sprintf("%s-%d", workload, seed)
	if err := tr.write(filepath.Join(outDir, base+"-spans.json")); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(outDir, base+"-cpu.pprof"), prof.Bytes(), 0o644); err != nil {
		return nil, err
	}
	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}

	m := j.counts()
	m["failed_frac"] = ratio(float64(c.failed), float64(c.attempted))
	wallOf := func(s iterStats) float64 { return s.wallS }
	plainWall, spannedWall := median(column(plain, wallOf)), median(column(spanned, wallOf))
	m["bench.span_overhead_frac"] = spannedWall/plainWall - 1
	m["bench.iterations"] = float64(len(spanned))

	iters := tr.perIter()
	span := func(name string) float64 {
		return median(column(iters, func(it map[string]float64) float64 { return it[name] }))
	}
	for _, name := range []string{"fleet.simulate", "fleet.traced_simulate", "trace.write", "trace.read",
		"fleet.convert", "fleet.replay", "workloads.build", "core.run", "workloads.verify"} {
		m[name+"_s"] = span(name)
	}
	m["engine.busy_s"] = span("engine.point")
	if pool := span("engine.map"); pool > 0 {
		m["engine.idle_frac"] = 1 - m["engine.busy_s"]/(float64(width)*pool)
	}
	m["fleet.ns_per_req"] = 1e9 * ratio(m["fleet.simulate_s"], m["fleet.requests"])
	m["fleet.ns_per_service"] = 1e9 * ratio(m["fleet.simulate_s"], m["fleet.services"])
	m["sim_req_per_s"] = ratio(m["fleet.requests"], m["fleet.simulate_s"])
	m["sim_minstr_per_s"] = ratio(m["archsim.minstr"], m["core.run_s"])
	m["trace_overhead_x"] = ratio(m["fleet.traced_simulate_s"], m["fleet.simulate_s"])

	shares, total := profileShares(samples)
	for l, s := range shares {
		m[l+".cpu_share"] = s
	}
	m["bench.profile_samples"] = float64(total)
	if fns := unclaimed(samples, 0.01); len(fns) > 0 {
		fmt.Printf("leaf functions above 1%% that the layer table does not claim: %s\n", strings.Join(fns, ", "))
	}

	// Isolated timings of single calls, outside the profile.
	var gen, serve, observe []float64
	for i := 0; i < 3; i++ {
		gen = append(gen, timeGenerate(j.arrivalStreams()))
		serve = append(serve, serveNs(200_000, seed))
		observe = append(observe, observeNs(1_000_000, seed))
	}
	m["session.generate_s"] = median(gen)
	m["governor.serve_ns"] = median(serve)
	m["series.observe_ns"] = median(observe)

	names := make([]string, 0, len(perLayer))
	for _, pm := range perLayer {
		names = append(names, pm.name)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-34s %.6g\n", n, m[n])
	}
	fmt.Printf("wall_s plain %.4f s (n=%d), with spans and profile %.4f s (n=%d)\n", plainWall, len(plain), spannedWall, len(spanned))
	return m, nil
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, l := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

func column[T any](xs []T, f func(T) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*1e4) / 1e4
	}
	return out
}
