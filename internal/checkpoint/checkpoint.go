// Package checkpoint implements the versioned, checksummed binary container
// used for machine snapshots: a magic string, a format version, a sequence of
// named sections of primitive values (varints, byte strings, int64 slices),
// and a CRC-64 trailer over everything before it.
//
// The container deliberately knows nothing about machines: the machine layer
// (and any future producer) writes its state through the Encoder primitives
// and reads it back through the mirroring Decoder. Section markers carry
// their names in the stream, so a reader that has drifted out of sync fails
// with "expected section X, found Y" instead of decoding garbage, and the
// trailing checksum rejects truncation and bit rot before any partial state
// escapes.
package checkpoint

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"slices"
)

// ErrCorrupt reports a malformed, truncated or checksum-mismatched
// container. All Decoder failures that indicate bad data (rather than an
// underlying I/O error) wrap it.
var ErrCorrupt = errors.New("checkpoint: corrupt snapshot")

// maxBlob bounds one length-prefixed byte string or slice.
const maxBlob = 1 << 30

// allocChunk caps how many elements a length-prefixed read allocates ahead
// of the data: storage grows as elements arrive, so a corrupted length costs
// memory only in proportion to the bytes actually read.
const allocChunk = 4096

// crcTable is the ECMA polynomial table shared by Encoder and Decoder.
var crcTable = crc64.MakeTable(crc64.ECMA)

// tag bytes distinguishing stream elements; each primitive is tagged so a
// writer/reader mismatch surfaces as a structural error at the exact spot.
const (
	tagSection = 0xA1
	tagUvarint = 0xA2
	tagBytes   = 0xA3
	tagInt64s  = 0xA4
)

// Encoder writes one container. Errors are sticky: after the first failure
// every call is a no-op and Close returns the error.
type Encoder struct {
	w   *bufio.Writer
	crc uint64
	err error
	buf [binary.MaxVarintLen64]byte
}

// NewEncoder starts a container on w: magic bytes, then the format version.
func NewEncoder(w io.Writer, magic string, version uint64) *Encoder {
	e := &Encoder{w: bufio.NewWriter(w)}
	e.raw([]byte(magic))
	e.Uvarint(version)
	return e
}

// raw writes b, folding it into the running checksum.
func (e *Encoder) raw(b []byte) {
	if e.err != nil {
		return
	}
	if _, err := e.w.Write(b); err != nil {
		e.err = err
		return
	}
	e.crc = crc64.Update(e.crc, crcTable, b)
}

// Uvarint writes one unsigned varint.
func (e *Encoder) Uvarint(v uint64) {
	e.raw([]byte{tagUvarint})
	n := binary.PutUvarint(e.buf[:], v)
	e.raw(e.buf[:n])
}

// Varint writes one signed varint (zig-zag).
func (e *Encoder) Varint(v int64) { e.Uvarint(zigzag(v)) }

// Int writes an int as a signed varint.
func (e *Encoder) Int(v int) { e.Varint(int64(v)) }

// Bool writes a boolean.
func (e *Encoder) Bool(v bool) {
	if v {
		e.Uvarint(1)
	} else {
		e.Uvarint(0)
	}
}

// Bytes writes a length-prefixed byte string.
func (e *Encoder) Bytes(b []byte) {
	e.raw([]byte{tagBytes})
	n := binary.PutUvarint(e.buf[:], uint64(len(b)))
	e.raw(e.buf[:n])
	e.raw(b)
}

// String writes a length-prefixed string.
func (e *Encoder) String(s string) { e.Bytes([]byte(s)) }

// Int64s writes a length-prefixed slice of signed varints.
func (e *Encoder) Int64s(vs []int64) {
	e.raw([]byte{tagInt64s})
	n := binary.PutUvarint(e.buf[:], uint64(len(vs)))
	e.raw(e.buf[:n])
	for _, v := range vs {
		n := binary.PutUvarint(e.buf[:], zigzag(v))
		e.raw(e.buf[:n])
	}
}

// Ints writes a length-prefixed slice of ints.
func (e *Encoder) Ints(vs []int) {
	e.raw([]byte{tagInt64s})
	n := binary.PutUvarint(e.buf[:], uint64(len(vs)))
	e.raw(e.buf[:n])
	for _, v := range vs {
		n := binary.PutUvarint(e.buf[:], zigzag(int64(v)))
		e.raw(e.buf[:n])
	}
}

// Section writes a named section marker.
func (e *Encoder) Section(name string) {
	e.raw([]byte{tagSection})
	n := binary.PutUvarint(e.buf[:], uint64(len(name)))
	e.raw(e.buf[:n])
	e.raw([]byte(name))
}

// Close writes the CRC-64 trailer and flushes. It returns the first error
// encountered anywhere in the encode.
func (e *Encoder) Close() error {
	if e.err != nil {
		return e.err
	}
	var tail [8]byte
	binary.LittleEndian.PutUint64(tail[:], e.crc)
	if _, err := e.w.Write(tail[:]); err != nil {
		return err
	}
	return e.w.Flush()
}

// Err returns the sticky error, if any.
func (e *Encoder) Err() error { return e.err }

// Decoder reads one container written by Encoder. Errors are sticky; the
// caller checks Err (or Close) once after reading, not after every field.
type Decoder struct {
	r       *bufio.Reader
	crc     uint64
	version uint64
	err     error
}

// NewDecoder opens a container, verifying the magic and reading the version.
func NewDecoder(r io.Reader, magic string) (*Decoder, error) {
	d := &Decoder{r: bufio.NewReader(r)}
	got := make([]byte, len(magic))
	d.full(got)
	if d.err != nil {
		return nil, fmt.Errorf("checkpoint: reading magic: %w", d.err)
	}
	if string(got) != magic {
		return nil, fmt.Errorf("%w: bad magic %q (want %q)", ErrCorrupt, got, magic)
	}
	d.version = d.Uvarint()
	if d.err != nil {
		return nil, fmt.Errorf("checkpoint: reading version: %w", d.err)
	}
	return d, nil
}

// Version returns the container's format version.
func (d *Decoder) Version() uint64 { return d.version }

// full reads len(b) bytes, folding them into the running checksum.
func (d *Decoder) full(b []byte) {
	if d.err != nil {
		return
	}
	if _, err := io.ReadFull(d.r, b); err != nil {
		d.readErr(err)
		return
	}
	d.crc = crc64.Update(d.crc, crcTable, b)
}

// byteIn reads one byte through the checksum.
func (d *Decoder) byteIn() byte {
	if d.err != nil {
		return 0
	}
	c, err := d.r.ReadByte()
	if err != nil {
		d.readErr(err)
		return 0
	}
	d.crc = crc64.Update(d.crc, crcTable, []byte{c})
	return c
}

// readErr records a reader failure: running out of input means the
// container was cut short, which is bad data; any other reader error passes
// through unchanged.
func (d *Decoder) readErr(err error) {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		err = fmt.Errorf("%w: truncated (%v)", ErrCorrupt, err)
	}
	d.err = err
}

// uvarintRaw reads a bare varint (no tag) through the checksum.
func (d *Decoder) uvarintRaw() uint64 {
	var v uint64
	var shift uint
	for i := 0; i < binary.MaxVarintLen64; i++ {
		c := d.byteIn()
		if d.err != nil {
			return 0
		}
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
		shift += 7
	}
	d.fail("varint overflow")
	return 0
}

// expect consumes a tag byte, failing with a structural error on mismatch.
func (d *Decoder) expect(tag byte, what string) bool {
	c := d.byteIn()
	if d.err != nil {
		return false
	}
	if c != tag {
		d.fail("expected %s, found tag 0x%02x", what, c)
		return false
	}
	return true
}

func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
}

// Uvarint reads one unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if !d.expect(tagUvarint, "varint") {
		return 0
	}
	return d.uvarintRaw()
}

// Varint reads one signed varint.
func (d *Decoder) Varint() int64 { return unzigzag(d.Uvarint()) }

// Int reads an int-sized signed varint.
func (d *Decoder) Int() int { return int(d.Varint()) }

// Bool reads a boolean.
func (d *Decoder) Bool() bool { return d.Uvarint() != 0 }

// Bytes reads a length-prefixed byte string.
func (d *Decoder) Bytes() []byte {
	if !d.expect(tagBytes, "bytes") {
		return nil
	}
	n := d.uvarintRaw()
	if d.err != nil {
		return nil
	}
	if n > maxBlob {
		d.fail("byte string length %d exceeds limit", n)
		return nil
	}
	b := make([]byte, 0, min(n, allocChunk))
	for uint64(len(b)) < n {
		k := int(min(n-uint64(len(b)), allocChunk))
		b = slices.Grow(b, k)
		d.full(b[len(b) : len(b)+k])
		if d.err != nil {
			return nil
		}
		b = b[:len(b)+k]
	}
	return b
}

// String reads a length-prefixed string.
func (d *Decoder) String() string { return string(d.Bytes()) }

// Int64s reads a length-prefixed slice of signed varints. A zero length
// returns nil.
func (d *Decoder) Int64s() []int64 {
	if !d.expect(tagInt64s, "int64 slice") {
		return nil
	}
	n := d.uvarintRaw()
	if d.err != nil {
		return nil
	}
	if n > maxBlob {
		d.fail("slice length %d exceeds limit", n)
		return nil
	}
	if n == 0 {
		return nil
	}
	vs := make([]int64, 0, min(n, allocChunk))
	for uint64(len(vs)) < n {
		v := unzigzag(d.uvarintRaw())
		if d.err != nil {
			return nil
		}
		vs = append(vs, v)
	}
	return vs
}

// Ints reads a length-prefixed slice of ints. A zero length returns nil.
func (d *Decoder) Ints() []int {
	vs := d.Int64s()
	if vs == nil {
		return nil
	}
	out := make([]int, len(vs))
	for i, v := range vs {
		out[i] = int(v)
	}
	return out
}

// Section consumes a section marker, failing unless its name matches.
func (d *Decoder) Section(name string) {
	if !d.expect(tagSection, fmt.Sprintf("section %q", name)) {
		return
	}
	n := d.uvarintRaw()
	if d.err != nil {
		return
	}
	if n > 256 {
		d.fail("section name length %d exceeds limit", n)
		return
	}
	got := make([]byte, n)
	d.full(got)
	if d.err != nil {
		return
	}
	if string(got) != name {
		d.fail("expected section %q, found %q", name, got)
	}
}

// Close reads and verifies the CRC-64 trailer. It returns the sticky decode
// error if one happened earlier.
func (d *Decoder) Close() error {
	if d.err != nil {
		return d.err
	}
	want := d.crc // the trailer itself is not part of the checksum
	var tail [8]byte
	if _, err := io.ReadFull(d.r, tail[:]); err != nil {
		return fmt.Errorf("%w: reading checksum trailer: %v", ErrCorrupt, err)
	}
	if got := binary.LittleEndian.Uint64(tail[:]); got != want {
		return fmt.Errorf("%w: checksum mismatch (stored %016x, computed %016x)", ErrCorrupt, got, want)
	}
	return nil
}

// Err returns the sticky error, if any.
func (d *Decoder) Err() error { return d.err }

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
