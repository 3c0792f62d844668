package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
)

// The JSONL codec is written for the fixed Record schema, without
// reflection. The writer emits exactly the bytes encoding/json's Encoder
// would — fields in declaration order, omitempty honoured, floats in
// its shortest-round-trip ES6 form, strings HTML-escaped — and the
// reader parses that canonical line form directly. Any other line (extra
// whitespace, reordered or differently cased keys, escapes, null, an
// empty list) goes to decodeLine, the strict encoding/json decoder, so
// what the reader accepts and every value it decodes are encoding/json's
// by construction; FuzzReadJSONL and FuzzWriteJSONL hold both halves to
// that.

// metaLine is the JSONL header line wrapper.
type metaLine struct {
	T    string `json:"t"`
	Meta Meta   `json:"meta"`
}

// flushAt is the writer's chunk size: lines accumulate in one reused
// buffer, which goes to the io.Writer once it holds this many bytes.
const flushAt = 64 << 10

// WriteJSONL serializes the trace as JSON Lines: a meta header line
// followed by one line per record, in record order. The bytes are a
// deterministic function of the Trace, identical to what encoding/json's
// Encoder writes for the meta line and each Record. A NaN or infinite
// float fails with encoding/json's error, after every line before the
// failing one has been written.
func (tr *Trace) WriteJSONL(w io.Writer) error {
	e := encoder{buf: make([]byte, 0, flushAt+4096)}
	e.meta(&tr.Meta)
	for i := 0; i < len(tr.Records) && e.err == nil; i++ {
		if len(e.buf) >= flushAt {
			if _, err := w.Write(e.buf); err != nil {
				return err
			}
			e.buf = e.buf[:0]
		}
		e.record(&tr.Records[i])
	}
	if len(e.buf) > 0 {
		if _, err := w.Write(e.buf); err != nil {
			return err
		}
	}
	return e.err
}

// encoder appends canonical lines to buf; err is the first unencodable
// value's error.
type encoder struct {
	buf    []byte
	err    error
	recent [64]formatted // slot: a multiplicative hash of the bits
}

// formatted is one float's encoding, remembered by its bits: a recording
// repeats most of its float values within a few lines — one instant
// stamps a decision and the events it causes, a best alternative's
// completion is one of its probes' — so a small direct-mapped table of
// recent encodings spares most of the shortest-digits searches. n is 0
// in an empty slot; the rare encoding longer than b is not remembered.
type formatted struct {
	bits uint64
	n    uint8
	b    [24]byte
}

func (e *encoder) lit(s string) { e.buf = append(e.buf, s...) }

func (e *encoder) int(v int) { e.buf = strconv.AppendInt(e.buf, int64(v), 10) }

// float appends f as encoding/json does: 'f' form, or 'e' form with a
// two-digit negative exponent shortened (e-07 → e-7) when |f| < 1e-6 or
// |f| ≥ 1e21.
func (e *encoder) float(f float64) {
	bits := math.Float64bits(f)
	slot := &e.recent[bits*0x9e3779b97f4a7c15>>58]
	if slot.n > 0 && slot.bits == bits {
		e.buf = append(e.buf, slot.b[:slot.n]...)
		return
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if e.err == nil {
			_, e.err = json.Marshal(f)
		}
		return
	}
	start := len(e.buf)
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(e.buf, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	e.buf = b
	if n := len(b) - start; n <= len(slot.b) {
		slot.bits, slot.n = bits, uint8(copy(slot.b[:], b[start:]))
	}
}

// floats appends a JSON array of floats.
func (e *encoder) floats(fs []float64) {
	e.lit("[")
	for i, f := range fs {
		if i > 0 {
			e.lit(",")
		}
		e.float(f)
	}
	e.lit("]")
}

// str appends s quoted: copied as is when every byte is printable ASCII
// that needs no escape, otherwise by json.Marshal (HTML escapes, invalid
// UTF-8, U+2028/2029).
func (e *encoder) str(s string) {
	for i := 0; i < len(s); i++ {
		if !plain(s[i]) || s[i] == '<' || s[i] == '>' || s[i] == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			e.buf = append(e.buf, q...)
			return
		}
	}
	e.buf = append(e.buf, '"')
	e.buf = append(e.buf, s...)
	e.buf = append(e.buf, '"')
}

// plain reports whether c stands for itself inside a JSON string.
func plain(c byte) bool { return c >= 0x20 && c < 0x7f && c != '"' && c != '\\' }

// endLine closes the line begun at offset start, or drops it whole when
// one of its values failed to encode.
func (e *encoder) endLine(start int) {
	if e.err != nil {
		e.buf = e.buf[:start]
		return
	}
	e.lit("\n")
}

func (e *encoder) meta(m *Meta) {
	start := len(e.buf)
	e.lit(`{"t":"meta","meta":{"policy":`)
	e.str(m.Policy)
	e.lit(`,"coordination":`)
	e.str(m.Coordination)
	e.lit(`,"nodes":`)
	e.int(m.Nodes)
	e.lit(`,"racks":`)
	e.int(m.Racks)
	e.lit(`,"requests":`)
	e.int(m.Requests)
	e.lit(`,"seed":`)
	e.buf = strconv.AppendInt(e.buf, m.Seed, 10)
	e.lit(`,"level":`)
	e.str(m.Level)
	e.lit(`,"window_s":`)
	e.float(m.WindowS)
	e.lit(`,"topk":`)
	e.int(m.TopK)
	e.lit("}}")
	e.endLine(start)
}

func (e *encoder) record(r *Record) {
	start := len(e.buf)
	e.lit(`{"t":`)
	e.str(r.T)
	e.lit(`,"at_s":`)
	e.float(r.AtS)
	e.lit(`,"seq":`)
	e.buf = strconv.AppendUint(e.buf, r.Seq, 10)
	if d := r.Decision; d != nil {
		e.lit(`,"decision":{"kind":`)
		e.str(d.Kind)
		e.lit(`,"req":`)
		e.int(d.Req)
		e.lit(`,"phase":`)
		e.int(d.Phase)
		e.lit(`,"node":`)
		e.int(d.Node)
		e.lit(`,"outcome":`)
		e.str(d.Outcome)
		e.lit(`,"key":`)
		e.float(d.Key)
		e.lit(`,"key_kind":`)
		e.str(d.KeyKind)
		e.lit(`,"work_s":`)
		e.float(d.WorkS)
		if len(d.Alts) > 0 {
			e.lit(`,"alts":[`)
			for i := range d.Alts {
				a := &d.Alts[i]
				if i > 0 {
					e.lit(",")
				}
				e.lit(`{"node":`)
				e.int(a.Node)
				e.lit(`,"key":`)
				e.float(a.Key)
				e.lit(`,"hypo_done_s":`)
				e.float(a.HypoDoneS)
				e.lit("}")
			}
			e.lit("]")
		}
		e.lit(`,"done_s":`)
		e.float(d.DoneS)
		e.lit(`,"best_alt":`)
		e.int(d.BestAlt)
		e.lit(`,"best_alt_done_s":`)
		e.float(d.BestAltDoneS)
		e.lit(`,"regret_s":`)
		e.float(d.RegretS)
		e.lit("}")
	}
	if ev := r.Event; ev != nil {
		e.lit(`,"event":{"kind":`)
		e.str(ev.Kind)
		e.lit(`,"node":`)
		e.int(ev.Node)
		e.lit(`,"rack":`)
		e.int(ev.Rack)
		e.lit(`,"req":`)
		e.int(ev.Req)
		e.lit(`,"phase":`)
		e.int(ev.Phase)
		if ev.Name != "" {
			e.lit(`,"name":`)
			e.str(ev.Name)
		}
		e.lit(`,"dur_s":`)
		e.float(ev.DurS)
		e.lit("}")
	}
	if s := r.Sample; s != nil {
		e.lit(`,"sample":{"start_s":`)
		e.float(s.StartS)
		e.lit(`,"end_s":`)
		e.float(s.EndS)
		e.lit(`,"phase":`)
		e.int(s.Phase)
		e.lit(`,"completed":`)
		e.int(s.Completed)
		e.lit(`,"throughput_rps":`)
		e.float(s.ThroughputRPS)
		e.lit(`,"p50_s":`)
		e.float(s.P50S)
		e.lit(`,"p99_s":`)
		e.float(s.P99S)
		e.lit(`,"in_flight":`)
		e.int(s.InFlight)
		e.lit(`,"sprints":`)
		e.int(s.Sprints)
		if len(s.RackDrawW) > 0 {
			e.lit(`,"rack_draw_w":`)
			e.floats(s.RackDrawW)
		}
		if len(s.RackBufferJ) > 0 {
			e.lit(`,"rack_buffer_j":`)
			e.floats(s.RackBufferJ)
		}
		e.lit("}")
	}
	e.lit("}")
	e.endLine(start)
}

// ReadJSONL parses a recording serialized by WriteJSONL: the meta header
// line followed by one record per line. Decoding is strict — the first
// non-blank line must be the meta header, unknown fields are rejected,
// each line holds exactly one JSON object and nothing after it, and each
// record's tag names its one present payload — so a recording round-trips
// exactly: ReadJSONL(WriteJSONL(tr)) == tr. Canonical record lines take
// the reflection-free fast path and the rest the strict encoding/json
// decoder, with the same result either way. Payloads live in Slabs
// chunks, which the returned records alias.
func ReadJSONL(r io.Reader) (*Trace, error) { return readJSONL(r, true) }

// readJSONL is ReadJSONL with the canonical-line fast path switched by
// fast; without it every line goes through decodeLine, the reference the
// fast path is fuzzed against.
func readJSONL(r io.Reader, fast bool) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	tr := &Trace{}
	var log RecordLog
	p := lineParser{strs: map[string]string{}}
	sawMeta := false
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if !sawMeta {
			var ml metaLine
			if err := decodeLine(line, &ml); err != nil || ml.T != "meta" {
				return nil, fmt.Errorf("trace: line %d: first line must be the meta header {\"t\":\"meta\",...}", lineNo)
			}
			tr.Meta = ml.Meta
			sawMeta = true
			continue
		}
		var rec Record
		if !fast || !p.record(line, &rec) {
			var err error
			if rec, err = decodeRecord(line); err != nil {
				return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
			}
		}
		if err := rec.checkPayload(); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
		}
		log.Append(rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	if !sawMeta {
		return nil, fmt.Errorf("trace: empty recording (no meta header)")
	}
	tr.Records = log.Records()
	return tr, nil
}

// decodeRecord strictly decodes one record line through encoding/json.
// Its Record is its own, so the caller's stays off the heap.
func decodeRecord(line []byte) (Record, error) {
	var rec Record
	err := decodeLine(line, &rec)
	return rec, err
}

// decodeLine strictly decodes one trimmed line into v: unknown fields
// are errors, and so is anything after the object.
func decodeLine(line []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if off := dec.InputOffset(); off != int64(len(line)) {
		return fmt.Errorf("unexpected data after the object at byte %d", off)
	}
	return nil
}

// checkPayload enforces the Record contract: the tag names exactly one
// present payload.
func (r *Record) checkPayload() error {
	n := 0
	for _, present := range []bool{r.Decision != nil, r.Event != nil, r.Sample != nil} {
		if present {
			n++
		}
	}
	ok := n == 1
	switch r.T {
	case "decision":
		ok = ok && r.Decision != nil
	case "event":
		ok = ok && r.Event != nil
	case "sample":
		ok = ok && r.Sample != nil
	default:
		return fmt.Errorf("unknown record tag %q (want decision|event|sample)", r.T)
	}
	if !ok {
		return fmt.Errorf("%q record must carry exactly one payload, its own; it carries %d", r.T, n)
	}
	return nil
}

// maxInterned caps the parser's string table, so a hostile recording
// with a fresh name on every line costs one string per line, not an
// ever-growing table.
const maxInterned = 1024

// lineParser decodes canonical record lines — the form WriteJSONL
// emits: keys in declaration order, no whitespace, one payload,
// omitempty fields present or absent, integers matching
// -?(0|[1-9][0-9]*) within their type, floats in the strict JSON number
// grammar, and strings of printable ASCII with no backslash. Each field
// step is a no-op once ok is false, and record then reports the line as
// non-canonical. Numbers convert with the same strconv calls
// encoding/json makes, so a value parsed here is bit for bit the one it
// would decode.
type lineParser struct {
	line []byte
	pos  int
	ok   bool

	slabs  Slabs
	strs   map[string]string // interned strings: tags, kinds, names
	alts   []Alt             // scratch for a decision's alternatives
	floats []float64         // scratch for a sample's rack columns
}

// record parses line into rec when the line is canonical, taking the
// payload from the slabs; it leaves rec untouched and reports false
// otherwise.
func (p *lineParser) record(line []byte, rec *Record) bool {
	p.line, p.pos, p.ok = line, 0, true
	var r Record
	p.lit(`{"t":`)
	r.T = p.str()
	p.lit(`,"at_s":`)
	r.AtS = p.float()
	p.lit(`,"seq":`)
	r.Seq = p.uint()
	switch {
	case p.opt(`,"decision":{"kind":`):
		var d Decision
		p.decision(&d)
		if p.ok {
			r.Decision = p.slabs.Decision(d)
			r.Decision.Alts = p.slabs.Alts(len(p.alts))
			copy(r.Decision.Alts, p.alts)
		}
	case p.opt(`,"event":{"kind":`):
		var ev Event
		p.event(&ev)
		if p.ok {
			r.Event = p.slabs.Event(ev)
		}
	case p.opt(`,"sample":{"start_s":`):
		var s Sample
		p.sample(&s)
		if p.ok {
			r.Sample = p.slabs.Sample(s)
		}
	}
	p.lit("}")
	if !p.ok || p.pos != len(p.line) {
		return false
	}
	*rec = r
	return true
}

// decision parses a decision payload after its kind key, leaving the
// alternatives in p.alts.
func (p *lineParser) decision(d *Decision) {
	d.Kind = p.str()
	p.lit(`,"req":`)
	d.Req = p.int()
	p.lit(`,"phase":`)
	d.Phase = p.int()
	p.lit(`,"node":`)
	d.Node = p.int()
	p.lit(`,"outcome":`)
	d.Outcome = p.str()
	p.lit(`,"key":`)
	d.Key = p.float()
	p.lit(`,"key_kind":`)
	d.KeyKind = p.str()
	p.lit(`,"work_s":`)
	d.WorkS = p.float()
	p.alts = p.alts[:0]
	if p.opt(`,"alts":[`) {
		for p.ok {
			var a Alt
			p.lit(`{"node":`)
			a.Node = p.int()
			p.lit(`,"key":`)
			a.Key = p.float()
			p.lit(`,"hypo_done_s":`)
			a.HypoDoneS = p.float()
			p.lit("}")
			p.alts = append(p.alts, a)
			if !p.opt(",") {
				break
			}
		}
		p.lit("]")
	}
	p.lit(`,"done_s":`)
	d.DoneS = p.float()
	p.lit(`,"best_alt":`)
	d.BestAlt = p.int()
	p.lit(`,"best_alt_done_s":`)
	d.BestAltDoneS = p.float()
	p.lit(`,"regret_s":`)
	d.RegretS = p.float()
	p.lit("}")
}

// event parses an event payload after its kind key.
func (p *lineParser) event(ev *Event) {
	ev.Kind = p.str()
	p.lit(`,"node":`)
	ev.Node = p.int()
	p.lit(`,"rack":`)
	ev.Rack = p.int()
	p.lit(`,"req":`)
	ev.Req = p.int()
	p.lit(`,"phase":`)
	ev.Phase = p.int()
	if p.opt(`,"name":`) {
		ev.Name = p.str()
	}
	p.lit(`,"dur_s":`)
	ev.DurS = p.float()
	p.lit("}")
}

// sample parses a sample payload after its start_s key, taking the rack
// columns from the slabs.
func (p *lineParser) sample(s *Sample) {
	s.StartS = p.float()
	p.lit(`,"end_s":`)
	s.EndS = p.float()
	p.lit(`,"phase":`)
	s.Phase = p.int()
	p.lit(`,"completed":`)
	s.Completed = p.int()
	p.lit(`,"throughput_rps":`)
	s.ThroughputRPS = p.float()
	p.lit(`,"p50_s":`)
	s.P50S = p.float()
	p.lit(`,"p99_s":`)
	s.P99S = p.float()
	p.lit(`,"in_flight":`)
	s.InFlight = p.int()
	p.lit(`,"sprints":`)
	s.Sprints = p.int()
	if p.opt(`,"rack_draw_w":[`) {
		s.RackDrawW = p.floatList()
	}
	if p.opt(`,"rack_buffer_j":[`) {
		s.RackBufferJ = p.floatList()
	}
	p.lit("}")
}

// floatList parses the non-empty rest of a float array into slab
// storage.
func (p *lineParser) floatList() []float64 {
	p.floats = p.floats[:0]
	for p.ok {
		p.floats = append(p.floats, p.float())
		if !p.opt(",") {
			break
		}
	}
	p.lit("]")
	if !p.ok {
		return nil
	}
	fs := p.slabs.Floats(len(p.floats))
	copy(fs, p.floats)
	return fs
}

// opt consumes s if the line continues with it.
func (p *lineParser) opt(s string) bool {
	if p.ok && len(p.line)-p.pos >= len(s) && string(p.line[p.pos:p.pos+len(s)]) == s {
		p.pos += len(s)
		return true
	}
	return false
}

// lit consumes s, which the line must continue with.
func (p *lineParser) lit(s string) {
	if !p.opt(s) {
		p.ok = false
	}
}

// str parses a quoted string of plain characters, interned.
func (p *lineParser) str() string {
	if !p.opt(`"`) {
		p.ok = false
		return ""
	}
	for i := p.pos; i < len(p.line); i++ {
		if c := p.line[i]; c == '"' {
			b := p.line[p.pos:i]
			p.pos = i + 1
			if s, ok := p.strs[string(b)]; ok {
				return s
			}
			s := string(b)
			if len(p.strs) < maxInterned {
				p.strs[s] = s
			}
			return s
		} else if !plain(c) {
			break
		}
	}
	p.ok = false
	return ""
}

// number consumes a JSON number — an integer one when integer is set —
// and returns its literal.
func (p *lineParser) number(integer bool) []byte {
	end := -1
	if p.ok {
		end = numberEnd(p.line, p.pos, integer)
	}
	if end < 0 {
		p.ok = false
		return nil
	}
	lit := p.line[p.pos:end]
	p.pos = end
	return lit
}

// numberEnd returns the end of the JSON number starting at b[i] — of its
// integer form -?(0|[1-9][0-9]*) when integer is set — or -1 when none
// starts there.
func numberEnd(b []byte, i int, integer bool) int {
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		i = digits(b, i)
	default:
		return -1
	}
	if integer {
		return i
	}
	if i < len(b) && b[i] == '.' {
		if i++; digits(b, i) == i {
			return -1
		}
		i = digits(b, i)
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if digits(b, i) == i {
			return -1
		}
		i = digits(b, i)
	}
	return i
}

// digits returns the index of the first non-digit at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	return i
}

// int, uint and float parse a number with the strconv call
// encoding/json makes for the field's type.
func (p *lineParser) int() int {
	lit := p.number(true)
	if !p.ok {
		return 0
	}
	n, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	p.ok = err == nil
	return int(n)
}

func (p *lineParser) uint() uint64 {
	lit := p.number(true)
	if !p.ok {
		return 0
	}
	n, err := strconv.ParseUint(string(lit), 10, 64)
	p.ok = err == nil
	return n
}

func (p *lineParser) float() float64 {
	lit := p.number(false)
	if !p.ok {
		return 0
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	p.ok = err == nil
	return f
}
