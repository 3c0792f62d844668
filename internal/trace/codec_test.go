package trace

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

// nearCanonical are record lines at the edge of the canonical form:
// each either takes the fast path or must fall back to the reference
// decoder, and both readers have to agree on it either way.
var nearCanonical = []string{
	`{"t":"event","at_s":-0,"seq":0,"event":{"kind":"complete","node":-0,"rack":-1,"req":0,"phase":-1,"dur_s":1E+2}}`,
	`{"t":"event","at_s":1e-7,"seq":18446744073709551615,"event":{"kind":"phase-start","node":-1,"rack":-1,"req":-1,"phase":0,"name":"surge","dur_s":0.5e-3}}`,
	`{"t":"event","at_s":1,"seq":18446744073709551616,"event":{"kind":"complete","node":0,"rack":-1,"req":0,"phase":-1,"dur_s":1}}`,
	`{"t":"event","at_s":1,"seq":-0,"event":{"kind":"complete","node":0,"rack":-1,"req":0,"phase":-1,"dur_s":1}}`,
	`{"t":"event","at_s":01,"seq":0,"event":{"kind":"complete","node":0,"rack":-1,"req":0,"phase":-1,"dur_s":1}}`,
	`{"t":"event","at_s":1.,"seq":0,"event":{"kind":"complete","node":0,"rack":-1,"req":0,"phase":-1,"dur_s":1}}`,
	`{"t":"event","at_s":1e400,"seq":0,"event":{"kind":"complete","node":0,"rack":-1,"req":0,"phase":-1,"dur_s":1}}`,
	`{"t":"event","at_s":1,"seq":0,"event":{"kind":"complete","node":1.0,"rack":-1,"req":0,"phase":-1,"dur_s":1}}`,
	`{"t":"event","at_s":1,"seq":0,"event":{"kind":"complete","node":9223372036854775808,"rack":-1,"req":0,"phase":-1,"dur_s":1}}`,
	`{"t":"event","at_s":1,"seq":0,"event":{"kind":"complete","node":-9223372036854775808,"rack":-1,"req":0,"phase":-1,"dur_s":1}}`,
	`{"t":"event","at_s":1,"seq":0,"event":{"kind":"complete","node":0,"rack":-1,"req":0,"phase":-1,"dur_s":1}}`,
	`{"t":"event","at_s":1,"seq":0,"event":{"kind":"a<b>&c","node":0,"rack":-1,"req":0,"phase":-1,"name":"","dur_s":1}}`,
	"{\"t\":\"event\",\"at_s\":1,\"seq\":0,\"event\":{\"kind\":\"caf\xc3\xa9\xff\",\"node\":0,\"rack\":-1,\"req\":0,\"phase\":-1,\"dur_s\":1}}",
	`{"t":"event", "at_s":1,"seq":0,"event":{"kind":"complete","node":0,"rack":-1,"req":0,"phase":-1,"dur_s":1}}`,
	`{"T":"event","at_s":1,"seq":0,"event":{"kind":"complete","node":0,"rack":-1,"req":0,"phase":-1,"dur_s":1}}`,
	`{"t":"event","at_s":1,"seq":0,"at_s":2,"event":{"kind":"complete","node":0,"rack":-1,"req":0,"phase":-1,"dur_s":1}}`,
	`{"t":"event","at_s":1,"seq":0,"event":{"kind":"complete","node":0,"rack":-1,"req":0,"phase":-1,"dur_s":1},"decision":null}`,
	`{"t":"event","at_s":1,"seq":0,"event":null}`,
	`{"t":"decision","at_s":1,"seq":0,"decision":{"kind":"dispatch","req":0,"phase":0,"node":0,"outcome":"enqueued","key":0.5,"key_kind":"budget","work_s":0.25,"alts":[],"done_s":1,"best_alt":-1,"best_alt_done_s":0,"regret_s":0}}`,
	`{"t":"decision","at_s":1,"seq":0,"decision":{"kind":"dispatch","req":0,"phase":0,"node":0,"outcome":"enqueued","key":0.5,"key_kind":"budget","work_s":0.25,"alts":null,"done_s":1,"best_alt":-1,"best_alt_done_s":0,"regret_s":0}}`,
	`{"t":"decision","at_s":1,"seq":0,"decision":{"kind":"dispatch","req":0,"phase":0,"node":0,"outcome":"enqueued","key":0.5,"key_kind":"budget","work_s":0.25,"alts":[{"node":1,"key":0.5,"hypo_done_s":-1},{"node":2,"key":0.5,"hypo_done_s":2}],"done_s":1,"best_alt":2,"best_alt_done_s":2,"regret_s":-1}}`,
	`{"t":"decision","at_s":1,"seq":0,"decision":{"kind":"dispatch","req":0,"phase":0,"node":0,"outcome":"enqueued","key":0.5,"key_kind":"budget","work_s":0.25,"alts":[{"node":1,"key":0.5,"hypo_done_s":-1},],"done_s":1,"best_alt":2,"best_alt_done_s":2,"regret_s":-1}}`,
	`{"t":"sample","at_s":5,"seq":9,"sample":{"start_s":0,"end_s":5,"phase":-1,"completed":0,"throughput_rps":0,"p50_s":-1,"p99_s":-1,"in_flight":0,"sprints":0,"rack_draw_w":[1.5,2],"rack_buffer_j":[3]}}`,
	`{"t":"sample","at_s":5,"seq":9,"sample":{"start_s":0,"end_s":5,"phase":-1,"completed":0,"throughput_rps":0,"p50_s":-1,"p99_s":-1,"in_flight":0,"sprints":0,"rack_buffer_j":[3]}}`,
	`{"t":"sample","at_s":5,"seq":9,"sample":{"start_s":0,"end_s":5,"phase":-1,"completed":0,"throughput_rps":0,"p50_s":-1,"p99_s":-1,"in_flight":0,"sprints":0,"rack_draw_w":[]}}`,
	`{"t":"sample","at_s":5,"seq":9,"event":{"kind":"complete","node":0,"rack":-1,"req":0,"phase":-1,"dur_s":1}}`,
}

// sameBits reports whether a and b are equal field by field, floats bit
// for bit (so 0 and -0 differ) and nil slices distinct from empty ones.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameBits(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := range a.Len() {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := range a.NumField() {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	}
	return a.Equal(b)
}

// FuzzReadJSONL is the reader's differential fuzzer: ReadJSONL and the
// reference reader that sends every line through decodeLine must agree
// on accept/reject, on the error (its line number included) and on every
// decoded value, floats bit for bit; an accepted recording must also
// re-encode to a fixed point — Write(Read(Write(Read(x)))) == Write(Read(x)).
func FuzzReadJSONL(f *testing.F) {
	f.Add([]byte(recordingHead))
	f.Add([]byte(metaHead))
	for _, tc := range malformedRecordings {
		f.Add([]byte(tc.in))
	}
	for _, line := range nearCanonical {
		f.Add([]byte(metaHead + line + "\n"))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadJSONL(bytes.NewReader(data))
		ref, refErr := readJSONL(bytes.NewReader(data), false)
		if (err == nil) != (refErr == nil) || err != nil && err.Error() != refErr.Error() {
			t.Fatalf("fast reader: %v\nreference reader: %v", err, refErr)
		}
		if err != nil {
			return
		}
		if !sameBits(reflect.ValueOf(tr), reflect.ValueOf(ref)) {
			t.Fatalf("fast reader decoded %+v\nreference decoded %+v", tr.Records, ref.Records)
		}
		var once bytes.Buffer
		if err := tr.WriteJSONL(&once); err != nil {
			t.Fatalf("accepted recording failed to re-encode: %v", err)
		}
		back, err := ReadJSONL(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded recording failed to parse: %v\n%s", err, once.Bytes())
		}
		var twice bytes.Buffer
		if err := back.WriteJSONL(&twice); err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("re-encoding is not a fixed point:\n%s\n%s", once.Bytes(), twice.Bytes())
		}
	})
}

// draws turns fuzz bytes into field values; once the bytes run out
// every draw is zero.
type draws []byte

func (d *draws) byte() byte {
	if len(*d) == 0 {
		return 0
	}
	b := (*d)[0]
	*d = (*d)[1:]
	return b
}

func (d *draws) u64() uint64 {
	var b [8]byte
	n := copy(b[:], *d)
	*d = (*d)[n:]
	return binary.LittleEndian.Uint64(b[:])
}

func (d *draws) int() int          { return int(int64(d.u64())) }
func (d *draws) float() float64    { return math.Float64frombits(d.u64()) }
func (d *draws) floats() []float64 { return drawSlice(d, d.float) }

// str draws up to 15 arbitrary bytes: invalid UTF-8, control and HTML
// characters included.
func (d *draws) str() string {
	n := min(int(d.byte()%16), len(*d))
	s := string((*d)[:n])
	*d = (*d)[n:]
	return s
}

// drawSlice draws up to three elements; a zero count draws nil or an
// empty slice, which encode alike.
func drawSlice[T any](d *draws, elem func() T) []T {
	n := int(d.byte() % 8)
	switch {
	case n == 0:
		return nil
	case n > 4:
		return []T{}
	}
	out := make([]T, n-1)
	for i := range out {
		out[i] = elem()
	}
	return out
}

// drawTrace builds a recording from fuzz bytes: arbitrary strings, float
// bits, alternative and rack counts, and any combination of payloads.
func drawTrace(d *draws) *Trace {
	tr := &Trace{Meta: Meta{
		Policy: d.str(), Coordination: d.str(), Nodes: d.int(), Racks: d.int(), Requests: d.int(),
		Seed: int64(d.u64()), Level: d.str(), WindowS: d.float(), TopK: d.int(),
	}}
	for n := d.byte() % 5; n > 0; n-- {
		r := Record{T: d.str(), AtS: d.float(), Seq: d.u64()}
		payloads := d.byte()
		if payloads&1 != 0 {
			r.Decision = &Decision{
				Kind: d.str(), Req: d.int(), Phase: d.int(), Node: d.int(), Outcome: d.str(),
				Key: d.float(), KeyKind: d.str(), WorkS: d.float(),
				Alts:  drawSlice(d, func() Alt { return Alt{Node: d.int(), Key: d.float(), HypoDoneS: d.float()} }),
				DoneS: d.float(), BestAlt: d.int(), BestAltDoneS: d.float(), RegretS: d.float(),
			}
		}
		if payloads&2 != 0 {
			r.Event = &Event{Kind: d.str(), Node: d.int(), Rack: d.int(), Req: d.int(), Phase: d.int(), Name: d.str(), DurS: d.float()}
		}
		if payloads&4 != 0 {
			r.Sample = &Sample{
				StartS: d.float(), EndS: d.float(), Phase: d.int(), Completed: d.int(),
				ThroughputRPS: d.float(), P50S: d.float(), P99S: d.float(), InFlight: d.int(), Sprints: d.int(),
				RackDrawW: d.floats(), RackBufferJ: d.floats(),
			}
		}
		tr.Records = append(tr.Records, r)
	}
	return tr
}

// FuzzWriteJSONL is the writer's differential fuzzer: a recording drawn
// from fuzz bytes must encode to exactly the bytes json.NewEncoder writes
// for its meta line and records, or both must fail with the same error
// after the same output.
func FuzzWriteJSONL(f *testing.F) {
	le := func(vs ...any) []byte {
		var b bytes.Buffer
		for _, v := range vs {
			if s, ok := v.(string); ok {
				b.WriteByte(byte(len(s)))
				b.WriteString(s)
				continue
			}
			_ = binary.Write(&b, binary.LittleEndian, v)
		}
		return b.Bytes()
	}
	f.Add([]byte{})
	f.Add(le("sprint-aware", "none", int64(4), int64(0), int64(2), int64(7), "full", 5.0, int64(3),
		byte(1), "decision", 1e-7, uint64(0), byte(7),
		"dispatch", int64(0), int64(-1), int64(2), "enqueued", 1e21, "budget", 0.25, byte(3),
		int64(1), 123456789.125, -0.0, int64(2), 5e-324, math.MaxFloat64))
	f.Add(le("a<b>&c", " \xff\"\\\n", int64(-1), int64(1), int64(1), int64(-9), "", math.NaN(), int64(0)))
	f.Add(le("p", "c", int64(1), int64(1), int64(1), int64(1), "l", 1.0, int64(1),
		byte(2), "event", math.Inf(1), uint64(1), byte(2)))
	f.Fuzz(func(t *testing.T, data []byte) {
		d := draws(data)
		checkWriter(t, drawTrace(&d))
	})
}

// checkWriter writes tr with WriteJSONL and with json.NewEncoder (the
// meta line, then each record, stopping at the first error) and fails
// the test unless both produce the same bytes and the same error, which
// it returns.
func checkWriter(t *testing.T, tr *Trace) ([]byte, error) {
	t.Helper()
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	wantErr := enc.Encode(metaLine{T: "meta", Meta: tr.Meta})
	for i := 0; wantErr == nil && i < len(tr.Records); i++ {
		wantErr = enc.Encode(&tr.Records[i])
	}
	var got bytes.Buffer
	err := tr.WriteJSONL(&got)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("WriteJSONL error %v, encoding/json error %v", err, wantErr)
	}
	if g, w := got.Bytes(), want.Bytes(); !bytes.Equal(g, w) {
		i := 0
		for i < min(len(g), len(w)) && g[i] == w[i] {
			i++
		}
		start := bytes.LastIndexByte(g[:i], '\n') + 1
		t.Fatalf("WriteJSONL differs from encoding/json at byte %d:\ngot:  %.300s\nwant: %.300s", i, g[start:], w[start:])
	}
	return got.Bytes(), err
}

// allocRecording builds a recording shaped like a full-level fleet run:
// per request a decision with three alternatives, a service start, a
// completion and a sprint, and a two-rack sample every 50 records.
func allocRecording(records int) *Trace {
	tr := &Trace{Meta: Meta{Policy: "sprint-aware", Coordination: "token-permit", Nodes: 64, Racks: 2, Level: "full", WindowS: 5, TopK: 3}}
	for i := 0; len(tr.Records) < records; i++ {
		at := float64(i) * 0.0137
		node := i * 7 % 64
		var r Record
		switch {
		case i%50 == 49:
			r = Record{T: "sample", Sample: &Sample{StartS: at - 5, EndS: at, Phase: -1, Completed: 40, ThroughputRPS: 8,
				P50S: 0.21, P99S: 1.7, InFlight: 3, Sprints: 1, RackDrawW: []float64{23, 8}, RackBufferJ: []float64{61.5, 60.25}}}
		case i%5 == 0:
			alts := make([]Alt, 3)
			for a := range alts {
				alts[a] = Alt{Node: (node + a + 1) % 64, Key: at + float64(a)/3, HypoDoneS: at + 0.5}
			}
			r = Record{T: "decision", Decision: &Decision{Kind: "dispatch", Req: i, Node: node, Outcome: "enqueued",
				Key: at + 0.1, KeyKind: "budget", WorkS: 0.25, Alts: alts, DoneS: at + 0.4, BestAlt: alts[0].Node,
				BestAltDoneS: at + 0.5, RegretS: -0.1}}
		default:
			kind := []string{"service-start", "complete", "sprint-start", "sprint-end"}[i%5-1]
			r = Record{T: "event", Event: &Event{Kind: kind, Node: node, Rack: node / 32, Req: i, Phase: -1, DurS: 0.015625}}
		}
		r.AtS, r.Seq = at, uint64(len(tr.Records))
		tr.Records = append(tr.Records, r)
	}
	return tr
}

// TestReadJSONLAllocations pins the reader's allocation budget: payloads
// come from slab chunks and repeated strings from the intern table, so
// reading a 10k-record recording costs about one allocation per hundred
// records — the Records slice's growth and a chunk per payload type
// every few thousand. A per-record new or &T{} on the fast path would
// cost 10k more.
func TestReadJSONLAllocations(t *testing.T) {
	const records = 10_000
	var b bytes.Buffer
	if err := allocRecording(records).WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := ReadJSONL(bytes.NewReader(b.Bytes())); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(records/100 + 64); allocs > limit {
		t.Errorf("ReadJSONL of %d records made %.0f allocations, want ≤ %.0f", records, allocs, limit)
	}
	t.Logf("%.0f allocations for %d records", allocs, records)
}

// TestWriteJSONLChunks holds the writer to encoding/json's output on a
// recording that spans several flush chunks, and to an error that names
// the unencodable value after writing every earlier line.
func TestWriteJSONLChunks(t *testing.T) {
	tr := allocRecording(5000)
	if b, err := checkWriter(t, tr); err != nil || len(b) < 4*flushAt {
		t.Fatalf("wrote %d bytes (error %v), want at least four %d-byte chunks", len(b), err, flushAt)
	}
	tr.Records[4000].AtS = math.Inf(-1)
	b, err := checkWriter(t, tr)
	if err == nil || !strings.Contains(err.Error(), "unsupported value: -Inf") {
		t.Fatalf("non-finite float: error %v", err)
	}
	if lines := bytes.Count(b, []byte("\n")); lines != 4001 {
		t.Fatalf("wrote %d lines before the failing record, want 4001", lines)
	}
}

// TestCodecNearbyFloats holds the writer's table of recent floats to
// exactness: runs of floats one ulp apart share most of their bits, so
// they collide in the direct-mapped table, and a table that matched on
// less than the whole value would reuse a neighbour's encoding. Reading
// them back must match the reference reader and the written values.
func TestCodecNearbyFloats(t *testing.T) {
	tr := &Trace{Meta: Meta{Policy: "p", Level: "full", WindowS: 5}}
	for _, base := range []float64{0.1, 123.456789, 3e-7, 2.5e21, -42} {
		bits := math.Float64bits(base)
		for k := range uint64(600) {
			f := math.Float64frombits(bits + k)
			tr.Records = append(tr.Records, Record{T: "event", AtS: f, Seq: k,
				Event: &Event{Kind: "complete", Node: 1, Rack: -1, Req: int(k), Phase: -1, DurS: -f}})
		}
	}
	b, err := checkWriter(t, tr)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONL(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := readJSONL(bytes.NewReader(b), false)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(reflect.ValueOf(back), reflect.ValueOf(ref)) || !sameBits(reflect.ValueOf(back.Records), reflect.ValueOf(tr.Records)) {
		t.Fatal("ReadJSONL differs from the reference reader on floats one ulp apart")
	}
}
