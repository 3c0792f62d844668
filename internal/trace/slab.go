package trace

// Slabs hands out record payload storage — decisions, events, samples,
// alternatives and rack columns — from fixed-size chunks, so building a
// recording costs a few allocations per chunk instead of one per record.
// A chunk is allocated once and never regrown: every pointer and slice
// Slabs returns stays valid, and writes through it stay visible, for as
// long as anything references the chunk. Records built from it alias the
// chunks, so one retained record keeps its whole chunk alive. The zero
// value is ready to use; a Slabs is not safe for concurrent use.
type Slabs struct {
	decisions slab[Decision]
	events    slab[Event]
	samples   slab[Sample]
	alts      slab[Alt]
	floats    slab[float64]
}

// Decision stores d in the slab and returns its address.
func (s *Slabs) Decision(d Decision) *Decision { return put(&s.decisions, d) }

// Event stores e in the slab and returns its address.
func (s *Slabs) Event(e Event) *Event { return put(&s.events, e) }

// Sample stores sm in the slab and returns its address.
func (s *Slabs) Sample(sm Sample) *Sample { return put(&s.samples, sm) }

// Alts returns n zeroed alternatives (nil for none), capped at length n
// so an append to them can never overwrite a neighbour's.
func (s *Slabs) Alts(n int) []Alt { return s.alts.take(n) }

// Floats returns n zeroed floats, capped at length n.
func (s *Slabs) Floats(n int) []float64 { return s.floats.take(n) }

// Chunk sizes start small and double up to maxChunk elements, so a short
// recording pays for little more than it holds and a long one for one
// allocation per maxChunk payloads.
const (
	firstChunk = 16
	maxChunk   = 4096
)

// slab is one payload type's chunk sequence: the current chunk's unused
// tail is handed out front to back.
type slab[T any] struct {
	chunk []T
}

// take returns the next n contiguous zeroed elements (nil for none),
// starting a new chunk when the current one cannot hold them; the rest
// of the old chunk is left unused rather than regrown.
func (s *slab[T]) take(n int) []T {
	if n == 0 {
		return nil
	}
	if cap(s.chunk)-len(s.chunk) < n {
		size := min(max(2*cap(s.chunk), firstChunk), maxChunk)
		s.chunk = make([]T, 0, max(size, n))
	}
	i := len(s.chunk)
	s.chunk = s.chunk[:i+n]
	return s.chunk[i : i+n : i+n]
}

// put stores v in the next slot and returns its address.
func put[T any](s *slab[T], v T) *T {
	p := &s.take(1)[0]
	*p = v
	return p
}

// RecordLog collects records in chunks sized like the Slabs' and
// assembles them into one exactly sized slice at the end: n records cost
// about n/maxChunk chunk allocations and one copy, where growing a
// single slice by append would allocate, clear and copy several times
// its final size. The zero value is an empty log.
type RecordLog struct {
	full [][]Record
	cur  []Record
}

// Append adds r at the end of the log.
func (l *RecordLog) Append(r Record) {
	if len(l.cur) == cap(l.cur) {
		if l.cur != nil {
			l.full = append(l.full, l.cur)
		}
		l.cur = make([]Record, 0, min(max(2*cap(l.cur), firstChunk), maxChunk))
	}
	l.cur = append(l.cur, r)
}

// Records returns every appended record in order (nil for none) and
// empties the log.
func (l *RecordLog) Records() []Record {
	n := len(l.cur)
	for _, c := range l.full {
		n += len(c)
	}
	if n == 0 {
		return nil
	}
	out := make([]Record, 0, n)
	for _, c := range l.full {
		out = append(out, c...)
	}
	out = append(out, l.cur...)
	*l = RecordLog{}
	return out
}
