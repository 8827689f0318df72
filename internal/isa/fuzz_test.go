package isa

import "testing"

// FuzzAssemble checks the assembler never panics and that anything it
// accepts disassembles to source it accepts again.
func FuzzAssemble(f *testing.F) {
	f.Add(sampleProgram)
	f.Add("main:\nLDI S0, 5\nHALT")
	f.Add("SPLIT 8 -> a, S1 -> a\na: JOIN")
	f.Add(".data 10: 1 2 3\nNOP")
	f.Add("BNEZ S0, main\nmain: HALT")
	f.Add("PRINTS \"x\\n\"")
	f.Add("LD V1, V0+100\nST 5, V1\nMPADD V2, S0-3, V1")
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Assemble("fuzz", src)
		if err != nil {
			return
		}
		dis := p.Disassemble()
		p2, err := Assemble("fuzz2", dis)
		if err != nil {
			t.Fatalf("accepted source does not round-trip: %v\noriginal:\n%s\ndisassembly:\n%s", err, src, dis)
		}
		if p2.Len() != p.Len() {
			t.Fatalf("round-trip changed length %d -> %d", p.Len(), p2.Len())
		}
	})
}

// FuzzDecode checks the TCFB decoder never panics or over-allocates on
// corrupt input, and that valid objects re-encode identically.
func FuzzDecode(f *testing.F) {
	f.Add([]byte("TCFB"))
	f.Add(Encode(MustAssemble("s", "main:\nHALT")))
	f.Add(Encode(MustAssemble("s", sampleProgram)))
	// A name length past MaxInt64 once wrapped negative and panicked.
	f.Add([]byte("TCFB\x01\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Decode(data)
		if err != nil {
			return
		}
		blob := Encode(p)
		q, err := Decode(blob)
		if err != nil {
			t.Fatalf("re-encode of accepted object fails: %v", err)
		}
		if q.Len() != p.Len() {
			t.Fatal("re-encode changed instruction count")
		}
	})
}
