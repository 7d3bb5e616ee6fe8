package collective

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"

	"repro/internal/tensor"
)

// reframe re-encodes a decoded frame; a healthy codec reproduces the
// original frame bytes exactly.
func reframe(h frameHeader, m Msg) []byte {
	return appendFrame(nil, h.class, h.kind, h.from, h.to, m)
}

func testSparse(rows, cols int, indices []int, values []float64) *tensor.Sparse {
	s := tensor.NewSparse(rows, cols, len(indices))
	s.Reuse(len(indices), rows, cols)
	copy(s.Indices, indices)
	copy(s.Values, values)
	return s
}

// testFactors returns a deterministic P (rows×r), Q (cols×r) pair.
func testFactors(rows, cols, r int) (p, q *tensor.Matrix) {
	p, q = tensor.New(rows, r), tensor.New(cols, r)
	for i := range p.Data {
		p.Data[i] = float64(i) + 0.25
	}
	for i := range q.Data {
		q.Data[i] = 1 / float64(i+3)
	}
	return p, q
}

func TestFrameRoundTrip(t *testing.T) {
	dense := tensor.New(2, 3)
	for i := range dense.Data {
		dense.Data[i] = float64(i) - 2.5
	}
	dense.Data[0] = math.Inf(-1)
	sparse := testSparse(2, 3, []int{0, 4}, []float64{1.5, math.Pi})
	factorP, factorQ := testFactors(2, 3, 2)

	cases := []struct {
		name string
		c    Class
		kind frameKind
		msg  Msg
	}{
		{"ring token", ClassDP, frameRing, Msg{Bytes: 4096}},
		{"dense pooled", ClassDP, frameRing, Msg{Bytes: 12, Part: Part{Payload: dense}, Pooled: true}},
		{"dense retained", ClassPP, frameP2P, Msg{Bytes: 12, Part: Part{Payload: dense}}},
		{"sparse", ClassEmb, frameP2P, Msg{Bytes: 20, Part: Part{Sparse: sparse}}},
		{"factors", ClassPP, frameP2P, Msg{Bytes: 20, Part: Part{P: factorP, Q: factorQ}, Pooled: true}},
		{"batch", ClassDP, frameRing, Msg{Bytes: 52, Part: Part{P: factorP, Q: factorQ}, Pooled: true,
			More: []Part{{Sparse: sparse}, {Payload: dense}, {P: factorP, Q: factorQ}}}},
		{"zero bytes", ClassPP, frameRing, Msg{}},
	}
	for _, tc := range cases {
		frame := appendFrame(nil, tc.c, tc.kind, 3, 5, tc.msg)
		bodyLen := binary.LittleEndian.Uint32(frame)
		if int(bodyLen) != len(frame)-4 {
			t.Fatalf("%s: length prefix %d for %d body bytes", tc.name, bodyLen, len(frame)-4)
		}
		h, m, err := decodeFrameBody(frame[4:], 8, nil)
		if err != nil {
			t.Fatalf("%s: decode: %v", tc.name, err)
		}
		if h.class != tc.c || h.kind != tc.kind || h.from != 3 || h.to != 5 {
			t.Fatalf("%s: header %+v", tc.name, h)
		}
		if m.Bytes != tc.msg.Bytes || m.Pooled != tc.msg.Pooled {
			t.Fatalf("%s: msg fields %+v", tc.name, m)
		}
		if m.NumParts() != tc.msg.NumParts() {
			t.Fatalf("%s: %d parts decoded, %d sent", tc.name, m.NumParts(), tc.msg.NumParts())
		}
		for i := 0; i < m.NumParts(); i++ {
			if partKind(m.PartAt(i)) != partKind(tc.msg.PartAt(i)) {
				t.Fatalf("%s: part %d changed form", tc.name, i)
			}
		}
		if !bytes.Equal(reframe(h, m), frame) {
			t.Fatalf("%s: re-encoded frame differs", tc.name)
		}
	}
}

func TestFrameDecodePool(t *testing.T) {
	pool := tensor.NewPool()
	dense := tensor.New(2, 2)
	dense.Fill(3)
	frame := appendFrame(nil, ClassDP, frameRing, 0, 1, Msg{Bytes: 8, Part: Part{Payload: dense}, Pooled: true})
	_, m, err := decodeFrameBody(frame[4:], 2, pool)
	if err != nil {
		t.Fatal(err)
	}
	pool.Put(m.Payload)
	// The pooled decode path must recycle: a second decode of the same
	// shape should reuse the matrix just returned.
	_, m2, err := decodeFrameBody(frame[4:], 2, pool)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Payload != m.Payload {
		t.Fatal("pooled decode did not recycle the returned matrix")
	}
	// Non-pooled dense payloads may be retained by the receiver, so they
	// must NOT come from the pool even when one is supplied.
	pool.Put(m2.Payload)
	frame = appendFrame(nil, ClassDP, frameP2P, 0, 1, Msg{Bytes: 8, Part: Part{Payload: dense}})
	_, m3, err := decodeFrameBody(frame[4:], 2, pool)
	if err != nil {
		t.Fatal(err)
	}
	if m3.Payload == m.Payload {
		t.Fatal("non-pooled decode returned a pooled matrix")
	}
}

func TestFrameDecodeErrors(t *testing.T) {
	valid := appendFrame(nil, ClassDP, frameRing, 1, 2, Msg{Bytes: 64})
	body := valid[4:]

	for cut := 0; cut < len(body); cut++ {
		if _, _, err := decodeFrameBody(body[:cut], 4, nil); err == nil {
			t.Fatalf("truncated body (%d of %d) decoded without error", cut, len(body))
		}
	}

	corrupt := func(name string, mutate func(b []byte)) {
		t.Helper()
		b := append([]byte(nil), body...)
		mutate(b)
		if _, _, err := decodeFrameBody(b, 4, nil); err == nil {
			t.Fatalf("%s decoded without error", name)
		}
	}
	corrupt("bad version", func(b []byte) { b[0] = 9 })
	corrupt("bad class", func(b []byte) { b[1] = byte(numClasses) })
	corrupt("bad kind", func(b []byte) { b[2] = 7 })
	corrupt("unknown flag bits", func(b []byte) { b[3] = 0x80 })
	corrupt("version 1 payload flags", func(b []byte) { b[3] = flagPooled | 1<<1 })
	corrupt("pooled without payload", func(b []byte) { b[3] = flagPooled })
	corrupt("part count without parts", func(b []byte) { b[20] = 1 })
	corrupt("from outside world", func(b []byte) { b[4] = 200 })
	corrupt("to outside world", func(b []byte) { b[8] = 200 })

	// Trailing bytes after a complete message.
	if _, _, err := decodeFrameBody(append(append([]byte(nil), body...), 0xEE), 4, nil); err == nil {
		t.Fatal("trailing bytes decoded without error")
	}

	// Corrupt embedded payload surfaces the tensor codec's error.
	sp := testSparse(2, 2, []int{0, 3}, []float64{1, 2})
	spFrame := appendFrame(nil, ClassEmb, frameP2P, 0, 1, Msg{Bytes: 8, Part: Part{Sparse: sp}})
	b := append([]byte(nil), spFrame[4:]...)
	b[frameHeaderLen+12] = 3 // first index == second index: breaks strict ascent
	if _, _, err := decodeFrameBody(b, 4, nil); err == nil {
		t.Fatal("corrupt sparse payload decoded without error")
	}
}

// multiPartFrame is a four-part batch — factors, sparse, dense, factors —
// and the offset of each part's kind byte within its body.
func multiPartFrame() (body []byte, partOff []int) {
	dense := tensor.New(2, 3)
	fillSeq(dense)
	p, q := testFactors(4, 3, 2)
	parts := []Part{{P: p, Q: q}, {Sparse: testSparse(2, 3, []int{1, 4}, []float64{-1, 2})}, {Payload: dense}, {P: p, Q: q}}
	off := frameHeaderLen
	for _, part := range parts {
		partOff = append(partOff, off)
		off += len(appendFrame(nil, ClassDP, frameRing, 0, 1, Msg{Part: part})) - 4 - frameHeaderLen
	}
	frame := appendFrame(nil, ClassDP, frameRing, 0, 1, Msg{Bytes: 96, Part: parts[0], More: parts[1:], Pooled: true})
	return frame[4:], partOff
}

// TestFrameDecodeErrorsMultiPart pins the untrusted-input contract on
// version-2 bodies: every way a part list can lie is an error — never a
// panic, and never an allocation sized from the lie.
func TestFrameDecodeErrorsMultiPart(t *testing.T) {
	body, partOff := multiPartFrame()
	if _, m, err := decodeFrameBody(body, 4, nil); err != nil || m.NumParts() != 4 {
		t.Fatalf("valid batch: %d parts, err %v", m.NumParts(), err)
	}

	// Truncation anywhere — inside a header, a factor, between parts.
	for cut := 0; cut < len(body); cut++ {
		if _, _, err := decodeFrameBody(body[:cut], 4, nil); err == nil {
			t.Fatalf("truncated batch (%d of %d) decoded without error", cut, len(body))
		}
	}

	corrupt := func(name string, mutate func(b []byte) []byte) {
		t.Helper()
		b := mutate(append([]byte(nil), body...))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := decodeFrameBody(b, 4, nil)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s decoded without error", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("%s: rejecting a %d-byte body allocated %d bytes", name, len(b), grew)
		}
	}
	u32 := func(b []byte, off int, v uint32) { binary.LittleEndian.PutUint32(b[off:], v) }

	corrupt("part count beyond the body", func(b []byte) []byte { b[20], b[21] = 0xff, 0xff; return b })
	corrupt("part count above the parts present", func(b []byte) []byte { b[20] = 5; return b })
	corrupt("part count below the parts present", func(b []byte) []byte { b[20] = 3; return b }) // trailing bytes
	corrupt("trailing bytes", func(b []byte) []byte { return append(b, 0xEE) })
	corrupt("unknown part kind", func(b []byte) []byte { b[partOff[2]] = 9; return b })
	corrupt("zero part kind", func(b []byte) []byte { b[partOff[1]] = 0; return b })
	// P is 4×2, Q 3×2: give Q rank 3 by reshaping it 2×3 (same length).
	qOff := partOff[0] + 1 + 8 + 8*8
	corrupt("P/Q rank mismatch", func(b []byte) []byte { u32(b, qOff, 2); u32(b, qOff+4, 3); return b })
	// Rank-0 factors carry no bytes at all, so their row counts are free
	// to claim anything: 2³⁰ × 2³⁰ would reconstruct to 2⁶⁰ elements.
	corrupt("factor shape overflow", func(b []byte) []byte {
		head := append([]byte(nil), b[:partOff[0]+1]...)
		head[20], head[21] = 1, 0
		for i := 0; i < 2; i++ {
			head = binary.LittleEndian.AppendUint32(head, 1<<30)
			head = binary.LittleEndian.AppendUint32(head, 0)
		}
		return head
	})
	// Tall rank-1 factors whose bytes are all present but whose product
	// passes the expansion cap: 2¹⁴ × 2¹⁴ = 2²⁸ > 2²⁷ elements.
	corrupt("factor expansion past the cap", func(b []byte) []byte {
		head := append([]byte(nil), b[:partOff[0]+1]...)
		head[20], head[21] = 1, 0
		for i := 0; i < 2; i++ {
			head = binary.LittleEndian.AppendUint32(head, 1<<14)
			head = binary.LittleEndian.AppendUint32(head, 1)
			head = append(head, make([]byte, 8<<14)...)
		}
		return head
	})
	corrupt("dense shape beyond the body", func(b []byte) []byte { u32(b, partOff[2]+1, 1<<20); return b })
	corrupt("sparse nnz beyond the body", func(b []byte) []byte { u32(b, partOff[1]+9, 1<<20); return b })
}

func FuzzDecodeFrameBody(f *testing.F) {
	dense := tensor.New(2, 3)
	for i := range dense.Data {
		dense.Data[i] = float64(i)
	}
	f.Add(appendFrame(nil, ClassDP, frameRing, 0, 1, Msg{Bytes: 128})[4:], 4)
	f.Add(appendFrame(nil, ClassPP, frameP2P, 2, 3, Msg{Bytes: 48, Part: Part{Payload: dense}, Pooled: true})[4:], 4)
	f.Add(appendFrame(nil, ClassEmb, frameP2P, 1, 0, Msg{Bytes: 24, Part: Part{Sparse: testSparse(2, 3, []int{1, 4}, []float64{-1, 2})}})[4:], 4)
	fp, fq := testFactors(3, 2, 1)
	f.Add(appendFrame(nil, ClassPP, frameP2P, 0, 1, Msg{Bytes: 10, Part: Part{P: fp, Q: fq}, Pooled: true})[4:], 2)
	batch, partOff := multiPartFrame()
	f.Add(batch, 4)
	f.Add(batch[:len(batch)-5], 4)                     // truncated last part
	f.Add(append(batch[:len(batch):len(batch)], 7), 4) // trailing byte
	for _, mutate := range []func(b []byte){
		func(b []byte) { b[20], b[21] = 0xff, 0xff },                          // part count beyond the body
		func(b []byte) { binary.LittleEndian.PutUint32(b[partOff[0]+5:], 3) }, // P rank 3 vs Q rank 2
		func(b []byte) { binary.LittleEndian.PutUint32(b[partOff[3]+1:], 1<<30) },
	} {
		b := append([]byte(nil), batch...)
		mutate(b)
		f.Add(b, 4)
	}
	f.Add([]byte{}, 1)
	f.Fuzz(func(t *testing.T, body []byte, world int) {
		if world <= 0 || world > 1<<20 {
			return
		}
		h, m, err := decodeFrameBody(body, world, nil) // must never panic
		if err != nil {
			return
		}
		if got := reframe(h, m); !bytes.Equal(got[4:], body) {
			t.Fatalf("re-encode mismatch: %d vs %d body bytes", len(got)-4, len(body))
		}
	})
}
