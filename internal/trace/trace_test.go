package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

func TestLevelRoundTrip(t *testing.T) {
	for _, l := range []Level{LevelOff, LevelDecisions, LevelFull} {
		got, err := ParseLevel(l.String())
		if err != nil {
			t.Fatalf("ParseLevel(%q): %v", l.String(), err)
		}
		if got != l {
			t.Fatalf("ParseLevel(%q) = %v, want %v", l.String(), got, l)
		}
	}
	if _, err := ParseLevel("verbose"); err == nil {
		t.Fatal("ParseLevel accepted an unknown level")
	}
}

// TestWriteJSONL proves the serialization contract readers depend on:
// a meta header line first, then one valid JSON object per record, in
// record order, each carrying exactly one payload under its tag.
func TestWriteJSONL(t *testing.T) {
	tr := &Trace{
		Meta: Meta{Policy: "sprint-aware", Nodes: 4, Requests: 2, Level: "decisions", WindowS: 5, TopK: 3},
		Records: []Record{
			{T: "decision", AtS: 0.5, Seq: 0, Decision: &Decision{
				Kind: "dispatch", Req: 0, Node: 1, Outcome: "enqueued", Key: 0.5, KeyKind: "budget",
				WorkS: 2, Alts: []Alt{{Node: 2, Key: 0.6, HypoDoneS: 2.7}},
				DoneS: 2.5, BestAlt: 2, BestAltDoneS: 2.7, RegretS: -0.2,
			}},
			{T: "event", AtS: 1, Seq: 1, Event: &Event{Kind: "sprint-start", Node: 1, Rack: -1, Req: -1, Phase: -1, DurS: 1}},
			{T: "sample", AtS: 5, Seq: 2, Sample: &Sample{StartS: 0, EndS: 5, Phase: -1, Completed: 1, ThroughputRPS: 0.2, P50S: 2, P99S: 2, InFlight: 1}},
		},
	}
	var b bytes.Buffer
	if err := tr.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	var lines []map[string]any
	sc := bufio.NewScanner(&b)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line %d is not valid JSON: %v", len(lines), err)
		}
		lines = append(lines, m)
	}
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4", len(lines))
	}
	wantT := []string{"meta", "decision", "event", "sample"}
	for i, m := range lines {
		if m["t"] != wantT[i] {
			t.Fatalf("line %d tag = %v, want %q", i, m["t"], wantT[i])
		}
	}
	if lines[0]["meta"].(map[string]any)["policy"] != "sprint-aware" {
		t.Fatal("meta line lost the policy")
	}
	d := lines[1]["decision"].(map[string]any)
	if d["key_kind"] != "budget" || d["regret_s"] != -0.2 {
		t.Fatalf("decision line mangled: %v", d)
	}
	for i, m := range lines[1:] {
		n := 0
		for _, k := range []string{"decision", "event", "sample"} {
			if _, ok := m[k]; ok {
				n++
			}
		}
		if n != 1 {
			t.Fatalf("record line %d carries %d payloads, want exactly 1", i, n)
		}
	}
}

func TestAccessorsAndTopRegret(t *testing.T) {
	tr := &Trace{Records: []Record{
		{T: "decision", AtS: 1, Decision: &Decision{Kind: "dispatch", Req: 0, Node: 0, DoneS: 4, BestAlt: 1, BestAltDoneS: 3, RegretS: 1}},
		{T: "event", AtS: 2, Event: &Event{Kind: "hedge-win", Req: 0}},
		{T: "decision", AtS: 3, Decision: &Decision{Kind: "hedge", Req: 1, Node: 2, DoneS: -1, BestAlt: -1}},
		{T: "decision", AtS: 4, Decision: &Decision{Kind: "dispatch", Req: 2, Node: 1, DoneS: 9, BestAlt: 0, BestAltDoneS: 4, RegretS: 5}},
		{T: "sample", AtS: 5, Sample: &Sample{EndS: 5}},
		{T: "event", AtS: 6, Event: &Event{Kind: "breaker-trip", Rack: 0}},
	}}
	if got := len(tr.Decisions()); got != 3 {
		t.Fatalf("Decisions() = %d entries, want 3", got)
	}
	if got := len(tr.Samples()); got != 1 {
		t.Fatalf("Samples() = %d entries, want 1", got)
	}
	if got := len(tr.Events()); got != 2 {
		t.Fatalf("Events() = %d entries, want 2", got)
	}
	if got := tr.Events("breaker-trip"); len(got) != 1 || got[0].Kind != "breaker-trip" {
		t.Fatalf("Events(breaker-trip) = %v", got)
	}
	// The unresolved decision (req 1) is excluded; the rest rank by
	// descending regret.
	top := tr.TopRegret(10)
	if len(top) != 2 || top[0].Req != 2 || top[0].RegretS != 5 || top[1].Req != 0 {
		t.Fatalf("TopRegret = %+v", top)
	}
	if got := tr.TopRegret(1); len(got) != 1 || got[0].Req != 2 {
		t.Fatalf("TopRegret(1) = %+v", got)
	}
}

func TestSparkline(t *testing.T) {
	if got := Sparkline([]float64{0, 1, 2, 3}); got != "▁▃▅█" {
		t.Fatalf("Sparkline ramp = %q", got)
	}
	if got := Sparkline([]float64{2, 2, 2}); got != "▁▁▁" {
		t.Fatalf("flat series = %q", got)
	}
	got := Sparkline([]float64{1, -1, 3})
	if !strings.Contains(got, " ") {
		t.Fatalf("no-data sentinel not rendered as space: %q", got)
	}
	if Sparkline(nil) != "" {
		t.Fatal("empty series should render empty")
	}
}

// recordingHead is the start of a flash-crowd recording (the make replay
// run): the meta header, a decision with its alternatives, sprint events,
// and a timeline sample with rack columns.
const recordingHead = `{"t":"meta","meta":{"policy":"sprint-aware","coordination":"token-permit","nodes":16,"racks":2,"requests":1115,"seed":12345,"level":"decisions","window_s":5,"topk":3}}
{"t":"decision","at_s":0.025234363586494342,"seq":0,"decision":{"kind":"dispatch","req":0,"phase":0,"node":0,"outcome":"enqueued","key":0.04085936358649434,"key_kind":"budget","work_s":0.25,"alts":[{"node":1,"key":0.04085936358649434,"hypo_done_s":0.04085936358649434},{"node":2,"key":0.04085936358649434,"hypo_done_s":0.04085936358649434}],"done_s":0.04085936358649434,"best_alt":1,"best_alt_done_s":0.04085936358649434,"regret_s":0}}
{"t":"event","at_s":0.025234363586494342,"seq":1,"event":{"kind":"sprint-start","node":0,"rack":0,"req":-1,"phase":-1,"dur_s":0.015625}}
{"t":"event","at_s":0.04085936358649434,"seq":2,"event":{"kind":"sprint-end","node":0,"rack":-1,"req":-1,"phase":-1,"dur_s":0}}
{"t":"sample","at_s":5,"seq":65,"sample":{"start_s":0,"end_s":5,"phase":0,"completed":21,"throughput_rps":4.2,"p50_s":0.14180644549089028,"p99_s":1.9740304077315893,"in_flight":2,"sprints":1,"rack_draw_w":[23,8],"rack_buffer_j":[61.50937500000001,61.50937500000001]}}
`

// metaHead is a bare meta header line.
const metaHead = `{"t":"meta","meta":{"policy":"least-loaded","coordination":"none","nodes":2,"racks":0,"requests":1,"seed":1,"level":"decisions","window_s":5,"topk":3}}` + "\n"

// malformedRecordings are recordings ReadJSONL must reject, each with the
// line number its error must name.
var malformedRecordings = []struct {
	name string
	in   string
	line int
}{
	{"trailing bytes after the object", metaHead + `{"t":"event","at_s":1,"seq":0,"event":{"kind":"complete","node":0,"rack":-1,"req":0,"phase":-1,"dur_s":1}} garbage`, 2},
	{"second object on the line", metaHead + `{"t":"event","at_s":1,"seq":0,"event":{"kind":"complete","node":0,"rack":-1,"req":0,"phase":-1,"dur_s":1}} {"t":"event","at_s":2,"seq":1,"event":{"kind":"complete","node":1,"rack":-1,"req":1,"phase":-1,"dur_s":1}}`, 2},
	{"decision tag with an event payload", metaHead + `{"t":"decision","at_s":1,"seq":0,"event":{"kind":"complete","node":0,"rack":-1,"req":0,"phase":-1,"dur_s":1}}`, 2},
	{"no payload", metaHead + "\n" + `{"t":"bogus","at_s":1,"seq":0}`, 3},
	{"two payloads", metaHead + `{"t":"event","at_s":1,"seq":0,"event":{"kind":"complete","node":0,"rack":-1,"req":0,"phase":-1,"dur_s":1},"sample":{"start_s":0,"end_s":5,"phase":-1,"completed":0,"throughput_rps":0,"p50_s":-1,"p99_s":-1,"in_flight":0,"sprints":0}}`, 2},
	{"meta line with trailing junk", strings.TrimSuffix(metaHead, "\n") + " junk\n", 1},
	{"unknown field", metaHead + `{"t":"event","at_s":1,"seq":0,"bogus":1,"event":{"kind":"complete","node":0,"rack":-1,"req":0,"phase":-1,"dur_s":1}}`, 2},
	{"no meta header", `{"t":"event","at_s":1,"seq":0,"event":{"kind":"complete","node":0,"rack":-1,"req":0,"phase":-1,"dur_s":1}}`, 1},
}

// TestReadJSONLRejects holds ReadJSONL to its strictness promise: each
// malformed recording fails with an error naming the offending line,
// while the well-formed recording it is built like still parses.
func TestReadJSONLRejects(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader(recordingHead)); err != nil {
		t.Fatalf("well-formed recording rejected: %v", err)
	}
	for _, tc := range malformedRecordings {
		tr, err := ReadJSONL(strings.NewReader(tc.in))
		if err == nil {
			t.Errorf("%s: accepted (%d records)", tc.name, len(tr.Records))
			continue
		}
		if want := fmt.Sprintf("line %d:", tc.line); !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %q does not name %q", tc.name, err, want)
		}
	}
}
