package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"testing/iotest"
)

func TestContainerRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	e := NewEncoder(&buf, "TESTMAGC", 3)
	e.Section("hdr")
	e.Uvarint(42)
	e.Varint(-7)
	e.Int(123456)
	e.Bool(true)
	e.Bool(false)
	e.String("hello")
	e.Bytes([]byte{0, 1, 2, 255})
	e.Int64s([]int64{-1, 0, 1, 1 << 40, -(1 << 40)})
	e.Int64s(nil)
	e.Ints([]int{3, 1, 4})
	e.Section("tail")
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	d, err := NewDecoder(bytes.NewReader(buf.Bytes()), "TESTMAGC")
	if err != nil {
		t.Fatalf("NewDecoder: %v", err)
	}
	if d.Version() != 3 {
		t.Fatalf("version = %d, want 3", d.Version())
	}
	d.Section("hdr")
	if got := d.Uvarint(); got != 42 {
		t.Errorf("Uvarint = %d", got)
	}
	if got := d.Varint(); got != -7 {
		t.Errorf("Varint = %d", got)
	}
	if got := d.Int(); got != 123456 {
		t.Errorf("Int = %d", got)
	}
	if !d.Bool() || d.Bool() {
		t.Errorf("Bool round-trip broken")
	}
	if got := d.String(); got != "hello" {
		t.Errorf("String = %q", got)
	}
	if got := d.Bytes(); !bytes.Equal(got, []byte{0, 1, 2, 255}) {
		t.Errorf("Bytes = %v", got)
	}
	if got := d.Int64s(); !reflect.DeepEqual(got, []int64{-1, 0, 1, 1 << 40, -(1 << 40)}) {
		t.Errorf("Int64s = %v", got)
	}
	if got := d.Int64s(); got != nil {
		t.Errorf("empty Int64s = %v, want nil", got)
	}
	if got := d.Ints(); !reflect.DeepEqual(got, []int{3, 1, 4}) {
		t.Errorf("Ints = %v", got)
	}
	d.Section("tail")
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestDecoderRejectsBadMagic(t *testing.T) {
	var buf bytes.Buffer
	e := NewEncoder(&buf, "MAGICONE", 1)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewDecoder(bytes.NewReader(buf.Bytes()), "MAGICTWO"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic err = %v, want ErrCorrupt", err)
	}
}

func TestDecoderDetectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	e := NewEncoder(&buf, "TESTMAGC", 1)
	e.Section("data")
	e.Int64s([]int64{1, 2, 3, 4, 5})
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// Flip one payload bit (past magic+version, before the trailer).
	for flip := len("TESTMAGC") + 2; flip < len(data)-8; flip++ {
		mut := append([]byte(nil), data...)
		mut[flip] ^= 0x10
		d, err := NewDecoder(bytes.NewReader(mut), "TESTMAGC")
		if err != nil {
			continue // corruption already detected at open
		}
		d.Section("data")
		d.Int64s()
		if err := d.Close(); err == nil {
			t.Fatalf("flipping byte %d went undetected", flip)
		}
	}
}

func TestDecoderDetectsTruncation(t *testing.T) {
	var buf bytes.Buffer
	e := NewEncoder(&buf, "TESTMAGC", 1)
	e.Section("data")
	e.Bytes(bytes.Repeat([]byte{7}, 100))
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	trunc := data[:len(data)-20]

	d, err := NewDecoder(bytes.NewReader(trunc), "TESTMAGC")
	if err != nil {
		return // truncated in the header, fine
	}
	d.Section("data")
	d.Bytes()
	if err := d.Close(); err == nil {
		t.Fatal("truncation went undetected")
	}
}

// TestDecoderTruncationIsCorrupt cuts an encoded container at every byte
// before its end: each prefix must fail with an error wrapping ErrCorrupt,
// whether the cut lands in the header, a section marker, the slice payload
// or the checksum trailer.
func TestDecoderTruncationIsCorrupt(t *testing.T) {
	var buf bytes.Buffer
	e := NewEncoder(&buf, "TESTMAGC", 1)
	e.Section("data")
	e.Int64s([]int64{1, -300, 1 << 40, 7})
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for cut := 0; cut < len(data); cut++ {
		d, err := NewDecoder(bytes.NewReader(data[:cut]), "TESTMAGC")
		if err == nil {
			d.Section("data")
			d.Int64s()
			err = d.Close()
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("cut at %d/%d: err = %v, want ErrCorrupt", cut, len(data), err)
		}
	}
}

// TestDecoderPassesReaderErrors: a reader failure other than running out of
// input is an I/O problem, not bad data, and reaches the caller unchanged.
func TestDecoderPassesReaderErrors(t *testing.T) {
	var buf bytes.Buffer
	e := NewEncoder(&buf, "TESTMAGC", 1)
	e.Section("data")
	e.Int64s([]int64{1, 2, 3, 4})
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk on fire")
	r := io.MultiReader(bytes.NewReader(buf.Bytes()[:len(buf.Bytes())-12]), iotest.ErrReader(boom))
	d, err := NewDecoder(r, "TESTMAGC")
	if err != nil {
		t.Fatal(err)
	}
	d.Section("data")
	d.Int64s()
	if err := d.Err(); !errors.Is(err, boom) || errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want the reader's own error", err)
	}
}

// TestDecoderHostileLengthBoundedAlloc feeds a header whose slice or string
// length claims 1<<30 elements and then ends. The decoder must fail with
// ErrCorrupt without first allocating storage for the claimed length.
func TestDecoderHostileLengthBoundedAlloc(t *testing.T) {
	for _, tc := range []struct {
		name   string
		tag    byte
		decode func(*Decoder)
	}{
		{"int64s", tagInt64s, func(d *Decoder) { d.Int64s() }},
		{"bytes", tagBytes, func(d *Decoder) { d.Bytes() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stream := []byte("TCFSNAP")
			stream = append(stream, tagUvarint, 1, tc.tag)
			stream = binary.AppendUvarint(stream, 1<<30)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			d, err := NewDecoder(bytes.NewReader(stream), "TCFSNAP")
			if err != nil {
				t.Fatal(err)
			}
			tc.decode(d)
			runtime.ReadMemStats(&after)
			if err := d.Err(); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
			if delta := after.TotalAlloc - before.TotalAlloc; delta >= 4<<20 {
				t.Fatalf("decoding a %d-byte stream allocated %d bytes", len(stream), delta)
			}
		})
	}
}

func TestDecoderSectionMismatch(t *testing.T) {
	var buf bytes.Buffer
	e := NewEncoder(&buf, "TESTMAGC", 1)
	e.Section("alpha")
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	d, err := NewDecoder(bytes.NewReader(buf.Bytes()), "TESTMAGC")
	if err != nil {
		t.Fatal(err)
	}
	d.Section("beta")
	if err := d.Err(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("section mismatch err = %v, want ErrCorrupt", err)
	}
}

func TestDecoderTagMismatch(t *testing.T) {
	var buf bytes.Buffer
	e := NewEncoder(&buf, "TESTMAGC", 1)
	e.Uvarint(9)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	d, err := NewDecoder(bytes.NewReader(buf.Bytes()), "TESTMAGC")
	if err != nil {
		t.Fatal(err)
	}
	d.Bytes() // wrong type: the stream holds a varint
	if err := d.Err(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("tag mismatch err = %v, want ErrCorrupt", err)
	}
}

func TestFileSinkAtomicReplace(t *testing.T) {
	dir := t.TempDir()
	sink := &FileSink{Path: filepath.Join(dir, "ckpt")}

	var steps []int64
	sink.OnWrite = func(step int64) { steps = append(steps, step) }

	write := func(step int64, payload string) {
		t.Helper()
		err := sink.Checkpoint(step, func(w io.Writer) error {
			_, err := w.Write([]byte(payload))
			return err
		})
		if err != nil {
			t.Fatalf("Checkpoint(%d): %v", step, err)
		}
	}
	write(4, "first")
	write(8, "second")

	got, err := os.ReadFile(sink.Path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "second" {
		t.Fatalf("checkpoint file holds %q, want the latest snapshot", got)
	}
	if sink.LastStep() != 8 {
		t.Fatalf("LastStep = %d, want 8", sink.LastStep())
	}
	if !reflect.DeepEqual(steps, []int64{4, 8}) {
		t.Fatalf("OnWrite steps = %v", steps)
	}

	// A failing snapshot leaves the previous checkpoint intact and no temp
	// litter behind.
	wantErr := errors.New("boom")
	if err := sink.Checkpoint(12, func(io.Writer) error { return wantErr }); !errors.Is(err, wantErr) {
		t.Fatalf("failing Checkpoint err = %v", err)
	}
	got, err = os.ReadFile(sink.Path)
	if err != nil || string(got) != "second" {
		t.Fatalf("after failed write: %q, %v", got, err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("directory holds %d entries, want just the checkpoint", len(ents))
	}
	if sink.LastStep() != 8 {
		t.Fatalf("LastStep after failure = %d, want 8", sink.LastStep())
	}

	if err := sink.Remove(); err != nil {
		t.Fatal(err)
	}
	if err := sink.Remove(); err != nil {
		t.Fatalf("second Remove: %v", err)
	}
}
