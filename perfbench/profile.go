package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// layerTable maps function-name prefixes to layers. A sample belongs to
// the layer of the innermost frame (inlined frames included) that
// matches an entry, the longest prefix winning; runtime and library code
// has no entry, so its time goes to the program layer that called it.
// The garbage collector's own entry points do have entries, so collector
// work lands in runtime.gc wherever it runs. Samples matching nothing go
// to other.
var layerTable = []struct{ prefix, layer string }{
	{"sprinting/internal/fleet.", "fleet.loop"},
	{"sprinting/internal/fleet.(*dispatchIndex).", "fleet.index"},
	{"sprinting/internal/fleet.newDispatchIndex", "fleet.index"},
	{"sprinting/internal/fleet.firstLERange", "fleet.index"},
	{"sprinting/internal/fleet.keyLess", "fleet.index"},
	{"sprinting/internal/fleet.entBefore", "fleet.index"},
	{"sprinting/internal/fleet.(*sim).touch", "fleet.index"},
	{"sprinting/internal/fleet.(*sim).tKey", "fleet.index"},
	{"sprinting/internal/fleet.(*node).drainKey", "fleet.index"},
	{"sprinting/internal/fleet.(*sim).selectNode", "fleet.index"},
	{"sprinting/internal/fleet.(*sim).sprintAwareMin", "fleet.index"},
	{"sprinting/internal/fleet.(*sim).estFinishAt", "fleet.index"},
	{"sprinting/internal/fleet.(*sim).segArgmin", "fleet.index"},
	{"sprinting/internal/fleet.(*sim).buildSegs", "fleet.index"},
	{"sprinting/internal/fleet.(*sim).refSelect", "fleet.index"},
	{"sprinting/internal/fleet.(*eventQueue).", "fleet.heap"},
	{"sprinting/internal/fleet.eventBefore", "fleet.heap"},
	{"sprinting/internal/fleet.(*sim).push", "fleet.heap"},
	{"sprinting/internal/fleet.(*rack).", "fleet.rack"},
	{"sprinting/internal/fleet.defaultSprintPermits", "fleet.rack"},
	{"sprinting/internal/fleet.(*sim).scheduleTrip", "fleet.rack"},
	{"sprinting/internal/fleet.(*sim).sprintAdmitted", "fleet.rack"},
	{"sprinting/internal/fleet.(*sim).rackSprintStart", "fleet.rack"},
	{"sprinting/internal/fleet.(*sim).sprintEnd", "fleet.rack"},
	{"sprinting/internal/fleet.(*sim).releaseSprint", "fleet.rack"},
	{"sprinting/internal/fleet.(*sim).breakerTrip", "fleet.rack"},
	{"sprinting/internal/fleet.(*sim).breakerReset", "fleet.rack"},
	{"sprinting/internal/fleet.(*sim).rackFail", "fleet.rack"},
	{"sprinting/internal/fleet.(*sim).finish", "fleet.finish"},
	{"sprinting/internal/fleet.(*recorder).", "fleet.recorder"},
	{"sprinting/internal/fleet.newRecorder", "fleet.recorder"},
	{"sprinting/internal/fleet.keyKind", "fleet.recorder"},
	{"sprinting/internal/fleet.rackOf", "fleet.recorder"},
	{"sprinting/internal/fleet.(*relState).", "fleet.reliability"},
	{"sprinting/internal/fleet.(*tokenBucket).", "fleet.reliability"},
	{"sprinting/internal/fleet.newRelState", "fleet.reliability"},
	{"sprinting/internal/fleet.(*sim).timeout", "fleet.reliability"},
	{"sprinting/internal/fleet.(*sim).clientRetry", "fleet.reliability"},
	{"sprinting/internal/fleet.(*sim).retry", "fleet.reliability"},
	{"sprinting/internal/fleet.(*workloadRun).", "fleet.workload"},
	{"sprinting/internal/fleet.WorkloadSpec.", "fleet.workload"},
	{"sprinting/internal/fleet.newWorkloadRun", "fleet.workload"},
	{"sprinting/internal/fleet.gammaDraw", "fleet.workload"},
	{"sprinting/internal/fleet.drawGap", "fleet.workload"},
	{"sprinting/internal/fleet.drawWork", "fleet.workload"},
	{"sprinting/internal/fleet.drawWidth", "fleet.workload"},
	{"sprinting/internal/fleet.(*sim).dequeueDisciplined", "fleet.workload"},
	{"sprinting/internal/fleet.buildReplayRun", "fleet.workload"},
	{"sprinting/internal/fleet.ReplayFromRecording", "fleet.workload"},
	{"sprinting/internal/fleet.ValidateRequestTrace", "fleet.workload"},
	{"sprinting/internal/fleet.Scenario.", "fleet.scenario"},
	{"sprinting/internal/fleet.(*scenarioRun).", "fleet.scenario"},
	{"sprinting/internal/fleet.(*phaseAcc).", "fleet.scenario"},
	{"sprinting/internal/fleet.Phase.", "fleet.scenario"},
	{"sprinting/internal/fleet.buildClasses", "fleet.scenario"},
	{"sprinting/internal/fleet.(*sim).phaseStart", "fleet.scenario"},
	{"sprinting/internal/fleet.(*sim).nodeFail", "fleet.scenario"},
	{"sprinting/internal/fleet.(*sim).failNode", "fleet.scenario"},
	{"sprinting/internal/fleet.(*sim).failoverOrphans", "fleet.scenario"},
	{"sprinting/internal/fleet.(*sim).nodeRecover", "fleet.scenario"},
	{"sprinting/internal/governor.", "governor"},
	{"sprinting/internal/session.", "session"},
	{"sprinting/internal/series.", "series"},
	{"sprinting/internal/trace.", "trace"},
	{"sprinting/internal/engine.", "engine"},
	{"sprinting/internal/archsim.", "archsim"},
	{"sprinting/internal/cpu.", "cpu"},
	{"sprinting/internal/mem.", "mem"},
	{"sprinting/internal/energy.", "energy"},
	{"sprinting/internal/thermal.", "thermal"},
	// Material constants feed only the thermal stack, and the power
	// source model only sizes rack buffers.
	{"sprinting/internal/materials.", "thermal"},
	{"sprinting/internal/powersource.", "fleet.rack"},
	{"sprinting/internal/rt.", "rt"},
	{"sprinting/internal/isa.", "isa"},
	{"sprinting/internal/core.", "core"},
	{"sprinting/internal/workloads.", "workloads"},
	{"runtime.gcBgMarkWorker", "runtime.gc"},
	{"runtime.gcDrain", "runtime.gc"},
	{"runtime.gcAssistAlloc", "runtime.gc"},
	{"runtime.scanobject", "runtime.gc"},
	{"runtime.scanblock", "runtime.gc"},
	{"runtime.scanstack", "runtime.gc"},
	{"runtime.greyobject", "runtime.gc"},
	{"runtime.markroot", "runtime.gc"},
	{"runtime.bgsweep", "runtime.gc"},
	{"runtime.sweepone", "runtime.gc"},
	{"runtime.bgscavenge", "runtime.gc"},
	{"runtime.gcStart", "runtime.gc"},
	{"runtime.gcMarkDone", "runtime.gc"},
	{"runtime.gcMarkTermination", "runtime.gc"},
	{"main.", "bench"},
}

// layers lists every layer the table names, plus other, in report order.
func layers() []string {
	seen := map[string]bool{}
	var out []string
	for _, e := range layerTable {
		if !seen[e.layer] {
			seen[e.layer] = true
			out = append(out, e.layer)
		}
	}
	return append(out, "other")
}

// layerOf returns the layer of one function name, or "" if no prefix
// matches.
func layerOf(fn string) string {
	best, layer := -1, ""
	for _, e := range layerTable {
		if len(e.prefix) > best && strings.HasPrefix(fn, e.prefix) {
			best, layer = len(e.prefix), e.layer
		}
	}
	return layer
}

// sample is one CPU profile sample: its frames innermost first and its
// sample count.
type sample struct {
	frames []string
	count  int64
	labels map[string]string
}

// attribute returns the sample's layer.
func (s sample) attribute() string {
	for _, f := range s.frames {
		if l := layerOf(f); l != "" {
			return l
		}
	}
	return "other"
}

// profileShares attributes the samples taken while a job ran (those with
// the job label) plus the collector's own background work to layers. It
// returns each layer's share and the number of samples counted.
func profileShares(samples []sample) (shares map[string]float64, total int64) {
	counts := map[string]int64{}
	for _, s := range samples {
		layer := s.attribute()
		if s.labels[jobLabel] == "" && layer != "runtime.gc" {
			continue
		}
		counts[layer] += s.count
		total += s.count
	}
	shares = map[string]float64{}
	for _, l := range layers() {
		shares[l] = 0
		if total > 0 {
			shares[l] = float64(counts[l]) / float64(total)
		}
	}
	return shares, total
}

// jobLabel is the pprof label set around every timed job in the traced
// run.
const jobLabel = "perfbench"

// unclaimed lists, sorted by name, the leaf functions holding more than
// minShare of the counted samples that the table does not claim: program
// functions no entry matches, and runtime or library functions whose
// samples fall to other.
func unclaimed(samples []sample, minShare float64) []string {
	_, total := profileShares(samples)
	counts := map[string]int64{}
	for _, s := range samples {
		if s.labels[jobLabel] == "" || len(s.frames) == 0 {
			continue
		}
		leaf := s.frames[0]
		program := strings.HasPrefix(leaf, "sprinting/") || strings.HasPrefix(leaf, "main.")
		if (program && layerOf(leaf) == "") || s.attribute() == "other" {
			counts[leaf] += s.count
		}
	}
	var out []string
	for fn, c := range counts {
		if float64(c) > minShare*float64(total) {
			out = append(out, fmt.Sprintf("%s (%.1f%%)", fn, 100*float64(c)/float64(total)))
		}
	}
	sort.Strings(out)
	return out
}

// parseProfile decodes a gzipped pprof protocol buffer as written by
// runtime/pprof: only the fields the attribution needs are read.
func parseProfile(data []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
		labels [][2]uint64
	}
	var (
		strs    []string
		samples []rawSample
		funcs   = map[uint64]uint64{}   // function id -> name string index
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = fields(raw, func(f int, v uint64, b []byte) error {
		switch f {
		case 2: // sample
			var s rawSample
			err := fields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					s.values = appendPacked(s.values, v, b)
				case 3:
					var kv [2]uint64
					err := fields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 || f == 2 {
							kv[f-1] = v
						}
						return nil
					})
					s.labels = append(s.labels, kv)
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := fields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	out := make([]sample, 0, len(samples))
	for _, rs := range samples {
		s := sample{labels: map[string]string{}}
		if len(rs.values) > 0 {
			s.count = int64(rs.values[0])
		}
		for _, l := range rs.locs {
			for _, fn := range locs[l] {
				s.frames = append(s.frames, str(funcs[fn]))
			}
		}
		for _, kv := range rs.labels {
			s.labels[str(kv[0])] = str(kv[1])
		}
		out = append(out, s)
	}
	return out, nil
}

// appendPacked appends a repeated scalar field that arrived either as
// one varint or as a packed run of varints.
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// fields walks one protocol buffer message, calling fn with each field's
// number and either its varint value (b nil) or its length-delimited
// bytes.
func fields(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(field, 0, b); err != nil {
				return err
			}
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}
