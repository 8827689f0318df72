package mem

import (
	"fmt"

	"tcfpram/internal/checkpoint"
)

// EncodeTo streams the shared memory's step-boundary state into e: shape
// identity (for restore-time validation), the failover remap, the access
// counters, and every materialized page that holds a non-zero word. Pages
// that are unmaterialized or all-zero are skipped — they read as zero either
// way, so materialization state is not observable and need not survive.
//
// The write shards must be empty (snapshots are taken at step boundaries,
// after ApplyStep); buffered writes are an error, not state to serialize.
func (s *Shared) EncodeTo(e *checkpoint.Encoder) error {
	if n := s.PendingWrites(); n != 0 {
		return fmt.Errorf("mem: snapshot with %d buffered writes (not at a step boundary)", n)
	}
	e.Varint(s.size)
	e.Int(s.modules)
	e.Int(int(s.policy))
	e.Ints(s.remap)
	failed := make([]int64, len(s.failed))
	for i, f := range s.failed {
		if f {
			failed[i] = 1
		}
	}
	e.Int64s(failed)
	e.Varint(s.failovers)
	e.Varint(s.reads)
	e.Varint(s.writesDone)
	e.Varint(s.stepWrites)

	nonzero := 0
	for _, p := range s.pages {
		if pageHasData(p) {
			nonzero++
		}
	}
	e.Int(nonzero)
	for i, p := range s.pages {
		if pageHasData(p) {
			e.Int(i)
			e.Int64s(p)
		}
	}
	return e.Err()
}

// DecodeFrom restores the state written by EncodeTo onto a freshly built (or
// Reset) memory of the same shape. Shape mismatches fail with an error
// naming the field.
func (s *Shared) DecodeFrom(d *checkpoint.Decoder) error {
	if size := d.Varint(); size != s.size {
		return fmt.Errorf("mem: snapshot shared size %d != machine %d", size, s.size)
	}
	if mods := d.Int(); mods != s.modules {
		return fmt.Errorf("mem: snapshot module count %d != machine %d", mods, s.modules)
	}
	if pol := Policy(d.Int()); pol != s.policy {
		return fmt.Errorf("mem: snapshot write policy %v != machine %v", pol, s.policy)
	}
	remap := d.Ints()
	if len(remap) != len(s.remap) {
		return fmt.Errorf("mem: snapshot remap length %d != %d", len(remap), len(s.remap))
	}
	for i, t := range remap {
		if t < 0 || t >= s.modules {
			return fmt.Errorf("mem: snapshot remap[%d]=%d outside [0,%d)", i, t, s.modules)
		}
		s.remap[i] = t
	}
	failed := d.Int64s()
	if len(failed) != len(s.failed) {
		return fmt.Errorf("mem: snapshot failed length %d != %d", len(failed), len(s.failed))
	}
	for i, f := range failed {
		s.failed[i] = f != 0
	}
	s.failovers = d.Varint()
	s.reads = d.Varint()
	s.writesDone = d.Varint()
	s.stepWrites = d.Varint()

	n := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	// The page table is lazily materialized, so validate against the
	// address-space capacity, not the (possibly still nil) table.
	nPages := int((s.size + pageWords - 1) >> PageShift)
	if n < 0 || n > nPages {
		return fmt.Errorf("mem: snapshot page count %d outside [0,%d]", n, nPages)
	}
	if n > 0 && s.pages == nil {
		s.pages = make([][]int64, nPages)
	}
	for k := 0; k < n; k++ {
		i := d.Int()
		words := d.Int64s()
		if err := d.Err(); err != nil {
			return err
		}
		if i < 0 || i >= nPages {
			return fmt.Errorf("mem: snapshot page index %d outside [0,%d)", i, nPages)
		}
		if len(words) != pageWords {
			return fmt.Errorf("mem: snapshot page %d holds %d words, want %d", i, len(words), pageWords)
		}
		if s.pages[i] == nil {
			s.pages[i] = make([]int64, pageWords)
		}
		copy(s.pages[i], words)
	}
	return d.Err()
}

// pageHasData reports whether p is materialized and holds any non-zero word.
func pageHasData(p []int64) bool {
	for _, w := range p {
		if w != 0 {
			return true
		}
	}
	return false
}

// EncodeTo streams the local memory's state into e: shape identity, access
// counters, and the words (skipped entirely while all-zero, matching the
// lazily materialized backing store).
func (l *Local) EncodeTo(e *checkpoint.Encoder) error {
	e.Int(l.group)
	e.Int(l.size)
	e.Varint(l.reads)
	e.Varint(l.writes)
	hasData := false
	if l.words != nil {
		for _, w := range l.words {
			if w != 0 {
				hasData = true
				break
			}
		}
	}
	e.Bool(hasData)
	if hasData {
		e.Int64s(l.words)
	}
	return e.Err()
}

// DecodeFrom restores the state written by EncodeTo onto a freshly built (or
// Reset) local memory of the same shape.
func (l *Local) DecodeFrom(d *checkpoint.Decoder) error {
	if g := d.Int(); g != l.group {
		return fmt.Errorf("mem: snapshot local group %d != %d", g, l.group)
	}
	if size := d.Int(); size != l.size {
		return fmt.Errorf("mem: snapshot local size %d != %d", size, l.size)
	}
	l.reads = d.Varint()
	l.writes = d.Varint()
	if d.Bool() {
		words := d.Int64s()
		if err := d.Err(); err != nil {
			return err
		}
		if len(words) != l.size {
			return fmt.Errorf("mem: snapshot local block holds %d words, want %d", len(words), l.size)
		}
		copy(l.ensure(), words)
	}
	return d.Err()
}
