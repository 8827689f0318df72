package isa

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
)

// Binary object format for assembled TCF programs ("TCFB"): a deterministic,
// versioned encoding of the instruction stream, labels and data segments,
// suitable for distributing compiled kernels between the assembler/compiler
// and the machine loader.
//
// Layout (all integers varint-encoded, signed values zigzag):
//
//	magic "TCFB", version byte
//	name: len, bytes
//	instrs: count, then per instruction:
//	    op, rd, ra, rb, rc (bytes)
//	    flags byte (bit0 = HasImm)
//	    imm (signed varint)
//	    target+1 (0 marks none)
//	    sym: len, bytes
//	    arms: count, then per arm: thickReg byte, thickImm, target+1, sym
//	labels: count, then (len, name, pc) sorted by name
//	data: count, then (addr, wordCount, words...)
const (
	binMagic   = "TCFB"
	binVersion = 1
)

// Encode serializes p into the TCFB object format.
func Encode(p *Program) []byte {
	var b bytes.Buffer
	b.WriteString(binMagic)
	b.WriteByte(binVersion)
	putString(&b, p.Name)
	putUvarint(&b, uint64(len(p.Instrs)))
	for _, in := range p.Instrs {
		b.WriteByte(byte(in.Op))
		b.WriteByte(byte(in.Rd))
		b.WriteByte(byte(in.Ra))
		b.WriteByte(byte(in.Rb))
		b.WriteByte(byte(in.Rc))
		var flags byte
		if in.HasImm {
			flags |= 1
		}
		b.WriteByte(flags)
		putVarint(&b, in.Imm)
		putUvarint(&b, uint64(in.Target+1))
		putString(&b, in.Sym)
		putUvarint(&b, uint64(len(in.Arms)))
		for _, arm := range in.Arms {
			b.WriteByte(byte(arm.Thick))
			putVarint(&b, arm.ThickImm)
			putUvarint(&b, uint64(arm.Target+1))
			putString(&b, arm.Sym)
		}
	}
	names := make([]string, 0, len(p.Labels))
	for name := range p.Labels {
		names = append(names, name)
	}
	sort.Strings(names)
	putUvarint(&b, uint64(len(names)))
	for _, name := range names {
		putString(&b, name)
		putUvarint(&b, uint64(p.Labels[name]))
	}
	putUvarint(&b, uint64(len(p.Data)))
	for _, d := range p.Data {
		putVarint(&b, d.Addr)
		putUvarint(&b, uint64(len(d.Words)))
		for _, w := range d.Words {
			putVarint(&b, w)
		}
	}
	return b.Bytes()
}

// Decode parses a TCFB object and validates the program.
func Decode(data []byte) (*Program, error) {
	r := &binReader{data: data}
	if string(r.bytes(4)) != binMagic {
		return nil, fmt.Errorf("isa: not a TCFB object")
	}
	if v := r.byte(); v != binVersion {
		return nil, fmt.Errorf("isa: unsupported TCFB version %d", v)
	}
	p := &Program{Labels: map[string]int{}}
	p.Name = r.string()
	n := int(r.uvarint())
	if r.err == nil && n > len(data) {
		return nil, fmt.Errorf("isa: corrupt TCFB: %d instructions in %d bytes", n, len(data))
	}
	for i := 0; i < n && r.err == nil; i++ {
		var in Instr
		in.Op = Op(r.byte())
		in.Rd = Reg(r.byte())
		in.Ra = Reg(r.byte())
		in.Rb = Reg(r.byte())
		in.Rc = Reg(r.byte())
		flags := r.byte()
		in.HasImm = flags&1 != 0
		in.Imm = r.varint()
		in.Target = int(r.uvarint()) - 1
		in.Sym = r.string()
		arms := int(r.uvarint())
		if r.err == nil && arms > len(data) {
			return nil, fmt.Errorf("isa: corrupt TCFB: %d arms", arms)
		}
		for a := 0; a < arms && r.err == nil; a++ {
			var arm SplitArm
			arm.Thick = Reg(r.byte())
			arm.ThickImm = r.varint()
			arm.Target = int(r.uvarint()) - 1
			arm.Sym = r.string()
			in.Arms = append(in.Arms, arm)
		}
		p.Instrs = append(p.Instrs, in)
	}
	labels := int(r.uvarint())
	if r.err == nil && labels > len(data) {
		return nil, fmt.Errorf("isa: corrupt TCFB: %d labels", labels)
	}
	for i := 0; i < labels && r.err == nil; i++ {
		name := r.string()
		pc := int(r.uvarint())
		p.Labels[name] = pc
	}
	segs := int(r.uvarint())
	if r.err == nil && segs > len(data) {
		return nil, fmt.Errorf("isa: corrupt TCFB: %d data segments", segs)
	}
	for i := 0; i < segs && r.err == nil; i++ {
		var d DataSeg
		d.Addr = r.varint()
		words := int(r.uvarint())
		if r.err == nil && words > len(data)*8 {
			return nil, fmt.Errorf("isa: corrupt TCFB: %d words", words)
		}
		for w := 0; w < words && r.err == nil; w++ {
			d.Words = append(d.Words, r.varint())
		}
		p.Data = append(p.Data, d)
	}
	if r.err != nil {
		return nil, fmt.Errorf("isa: corrupt TCFB: %w", r.err)
	}
	if r.off != len(data) {
		return nil, fmt.Errorf("isa: trailing garbage in TCFB object (%d bytes)", len(data)-r.off)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

func putUvarint(b *bytes.Buffer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	b.Write(tmp[:binary.PutUvarint(tmp[:], v)])
}

func putVarint(b *bytes.Buffer, v int64) {
	var tmp [binary.MaxVarintLen64]byte
	b.Write(tmp[:binary.PutVarint(tmp[:], v)])
}

func putString(b *bytes.Buffer, s string) {
	putUvarint(b, uint64(len(s)))
	b.WriteString(s)
}

type binReader struct {
	data []byte
	off  int
	err  error
}

func (r *binReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("truncated %s at offset %d", what, r.off)
	}
}

func (r *binReader) byte() byte {
	if r.err != nil || r.off >= len(r.data) {
		r.fail("byte")
		return 0
	}
	v := r.data[r.off]
	r.off++
	return v
}

func (r *binReader) bytes(n int) []byte {
	if r.err != nil || r.off+n > len(r.data) {
		r.fail("bytes")
		return make([]byte, n)
	}
	v := r.data[r.off : r.off+n]
	r.off += n
	return v
}

func (r *binReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.fail("uvarint")
		return 0
	}
	r.off += n
	return v
}

func (r *binReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data[r.off:])
	if n <= 0 {
		r.fail("varint")
		return 0
	}
	r.off += n
	return v
}

func (r *binReader) string() string {
	// Compare in uint64: a length past MaxInt64 would turn negative as int.
	n := r.uvarint()
	if r.err != nil || n > uint64(len(r.data)-r.off) {
		r.fail("string")
		return ""
	}
	return string(r.bytes(int(n)))
}
