package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"regexp"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var workloadNames = []string{"fleet_scale", "policy_sweep", "record_replay", "paper_cosim"}

// testScale shrinks every workload so the self-tests run in seconds.
const testScale = 0.05

func newTestJob(t *testing.T, name string) job {
	t.Helper()
	j, err := newJob(name, defaultSeed, "..", testScale)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestMetricNames(t *testing.T) {
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]metric{}, endToEnd...), perLayer...) {
		if !valid.MatchString(m.name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", m.name)
		}
		if !unit.MatchString(m.unit) {
			t.Errorf("metric %s: bad unit %q", m.name, m.unit)
		}
		if m.better != "higher" && m.better != "lower" {
			t.Errorf("metric %s: better = %q", m.name, m.better)
		}
		if seen[m.name] {
			t.Errorf("metric %s declared twice", m.name)
		}
		seen[m.name] = true
	}
	for _, m := range perLayer {
		if m.moves == "" {
			t.Errorf("per-layer metric %s does not say what it should move", m.name)
		}
	}
}

// TestBenchmarkJSONMatchesRegistry keeps BENCHMARK.json's metric lists
// identical to the ones the harness prints.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit, Better string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []entry, want []metric) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the harness %d", what, len(got), len(want))
		}
		for i, m := range want {
			if got[i] != (entry{m.name, m.unit, m.better}) {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the harness %+v", what, i, got[i], m)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	for _, w := range b.Workloads {
		if _, err := newJob(w.Name, defaultSeed, "..", testScale); err != nil {
			t.Errorf("workload %s: %v", w.Name, err)
		}
	}
}

// TestPerturbedOutputFailsDigest pins a job's digests, then perturbs one
// field of a returned fleet Metrics and of a kernel Result.
func TestPerturbedOutputFailsDigest(t *testing.T) {
	pin := func(name string, j job) *checker {
		c := &checker{workload: name, seed: defaultSeed, pinned: map[string]string{}}
		for _, r := range j.check() {
			if r.err != nil {
				t.Fatalf("%s: %v", r.id, r.err)
			}
			c.pinned[name+"/1/"+r.id] = r.digest()
		}
		return c
	}

	fs := newTestJob(t, "fleet_scale").(*fleetScale)
	fs.run(nil)
	c := pin("fleet_scale", fs)
	c.check(fs)
	if c.failed != 0 {
		t.Fatalf("unperturbed outputs failed %d checks", c.failed)
	}
	fs.call.m.P99S *= 1 + 1e-12
	c.check(fs)
	if c.failed != 1 {
		t.Errorf("perturbed P99S: %d failed checks, want 1", c.failed)
	}
	fs.run(nil)
	fs.call.m.Nodes[len(fs.call.m.Nodes)-1].Served++
	fs.call.m.Nodes[0].Served--
	c.check(fs)
	if c.failed != 2 {
		t.Errorf("perturbed per-node Served: %d failed checks, want 2", c.failed)
	}

	pc := newTestJob(t, "paper_cosim").(*paperCosim)
	pc.run(nil)
	c = pin("paper_cosim", pc)
	pc.points[3].res.Machine.Mem.LLCMisses++
	c.check(pc)
	if c.failed != 1 {
		t.Errorf("perturbed kernel result: %d failed checks, want 1", c.failed)
	}

	// A call the pinned table does not know is a failure too.
	delete(c.pinned, "paper_cosim/1/"+pc.check()[0].id)
	pc.run(nil)
	c.failed = 0
	c.check(pc)
	if c.failed != 1 {
		t.Errorf("call without a pinned digest: %d failed checks, want 1", c.failed)
	}
}

// TestInvariantsCatchBrokenConservation breaks the fleet's conservation
// laws and the record/replay equality, one at a time.
func TestInvariantsCatchBrokenConservation(t *testing.T) {
	fs := newTestJob(t, "fleet_scale").(*fleetScale)
	fs.run(nil)
	fs.call.m.Completed++
	if r := fs.check()[0]; r.err == nil {
		t.Error("completed+1 passed the conservation check")
	}
	fs.call.m.Completed--
	fs.call.m.Nodes[0].Dropped++
	if r := fs.check()[0]; r.err == nil {
		t.Error("a per-node drop count off by one passed")
	}
	fs.call.m.Nodes[0].Dropped--
	fs.call.m.Nodes[0].TimedOut++
	if r := fs.check()[0]; r.err == nil {
		t.Error("a per-node timeout count off by one passed")
	}

	rr := newTestJob(t, "record_replay").(*recordReplay)
	rr.run(nil)
	for _, r := range rr.check() {
		if r.err != nil {
			t.Fatalf("%s: %v", r.id, r.err)
		}
	}
	rr.replay.P50S++
	if r := rr.check()[3]; r.err == nil {
		t.Error("a replay differing from the recorded run passed")
	}
}

// TestLayerTableCoversProfiles profiles each workload and requires every
// leaf function above 2% of the samples to fall to a named layer.
func TestLayerTableCoversProfiles(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles every workload")
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			j := newTestJob(t, name)
			var buf bytes.Buffer
			if err := pprof.StartCPUProfile(&buf); err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			for time.Since(start) < 2*time.Second {
				pprof.Do(context.Background(), pprof.Labels(jobLabel, "job"), func(context.Context) { j.run(nil) })
			}
			pprof.StopCPUProfile()
			samples, err := parseProfile(buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			shares, total := profileShares(samples)
			if total < 50 {
				t.Fatalf("only %d samples", total)
			}
			if fns := unclaimed(samples, 0.02); len(fns) > 0 {
				t.Errorf("leaf functions the layer table does not claim: %v", fns)
			}
			sum := 0.0
			for _, s := range shares {
				sum += s
			}
			if sum < 0.999 || sum > 1.001 {
				t.Errorf("shares sum to %v", sum)
			}
		})
	}
}

// TestGoroutineBound samples the goroutine count while each workload
// runs: no workload may run more than width simulation goroutines.
func TestGoroutineBound(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			j := newTestJob(t, name)
			var peak atomic.Int64
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if n := int64(runtime.NumGoroutine()); n > peak.Load() {
						peak.Store(n)
					}
					runtime.Gosched()
				}
			}()
			time.Sleep(10 * time.Millisecond)
			base := peak.Load()
			for i := 0; i < 3; i++ {
				j.run(nil)
			}
			close(stop)
			wg.Wait()
			// The calling goroutine blocks while a pool runs, so the job
			// may add at most width goroutines beside it.
			if extra := peak.Load() - base; extra > int64(width) {
				t.Errorf("%d goroutines beside the caller, host width %d", extra, width)
			}
		})
	}
}

func TestParseProfileRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	pprof.Do(context.Background(), pprof.Labels(jobLabel, "job"), func(context.Context) {
		deadline := time.Now().Add(300 * time.Millisecond)
		x := 0
		for time.Now().Before(deadline) {
			x++
		}
		_ = x
	})
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	labelled := 0
	for _, s := range samples {
		if s.labels[jobLabel] == "job" && len(s.frames) > 0 {
			labelled++
		}
	}
	if labelled == 0 {
		t.Fatalf("no labelled samples among %d", len(samples))
	}
	if got := layerOf("sprinting/internal/fleet.(*dispatchIndex).update"); got != "fleet.index" {
		t.Errorf("dispatch index method maps to %q", got)
	}
	if got := layerOf("sprinting/internal/fleet.(*sim).dispatch"); got != "fleet.loop" {
		t.Errorf("(*sim).dispatch maps to %q", got)
	}
}
