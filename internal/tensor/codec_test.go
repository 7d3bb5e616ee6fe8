package tensor

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// fillPattern writes a deterministic mix of awkward float64 values:
// signed zeros, denormals, infinities, NaN, and ordinary magnitudes.
// Round-trips are compared bit for bit, so NaN payload bits must survive.
func fillPattern(data []float64, seed int64) {
	specials := []float64{
		0, math.Copysign(0, -1), 1, -1, math.Pi, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff8dead_beef0001), // NaN with payload bits
	}
	rng := rand.New(rand.NewSource(seed))
	for i := range data {
		if i%3 == 0 {
			data[i] = specials[i/3%len(specials)]
		} else {
			data[i] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(40)-20))
		}
	}
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// sparseWith builds a rows×cols sparse view holding the first k indices of
// a deterministic strictly-ascending subset (density = k / (rows·cols)).
func sparseWith(rows, cols int, density float64, seed int64) *Sparse {
	n := rows * cols
	k := int(math.Round(density * float64(n)))
	s := NewSparse(rows, cols, k)
	s.Reuse(k, rows, cols)
	rng := rand.New(rand.NewSource(seed))
	idx := rng.Perm(n)[:k]
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && idx[j] < idx[j-1]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	copy(s.Indices, idx)
	fillPattern(s.Values, seed+1)
	return s
}

func TestMatrixCodecRoundTrip(t *testing.T) {
	shapes := [][2]int{{1, 1}, {1, 0}, {0, 0}, {3, 4}, {7, 5}, {1, 257}, {64, 1}}
	for _, sh := range shapes {
		m := New(sh[0], sh[1])
		fillPattern(m.Data, int64(sh[0]*1000+sh[1]))
		buf := AppendMatrix([]byte{0xAA}, m) // nonzero prefix: append must not clobber
		if buf[0] != 0xAA {
			t.Fatalf("%dx%d: AppendMatrix clobbered prefix", sh[0], sh[1])
		}
		enc := buf[1:]
		if len(enc) != EncodedMatrixLen(m) {
			t.Fatalf("%dx%d: encoded %d bytes, EncodedMatrixLen says %d", sh[0], sh[1], len(enc), EncodedMatrixLen(m))
		}
		tail := []byte{1, 2, 3}
		got, rest, err := DecodeMatrix(append(append([]byte(nil), enc...), tail...), nil)
		if err != nil {
			t.Fatalf("%dx%d: decode: %v", sh[0], sh[1], err)
		}
		if got.Rows != m.Rows || got.Cols != m.Cols || !bitsEqual(got.Data, m.Data) {
			t.Fatalf("%dx%d: round-trip mismatch", sh[0], sh[1])
		}
		if len(rest) != len(tail) {
			t.Fatalf("%dx%d: remainder %d bytes, want %d", sh[0], sh[1], len(rest), len(tail))
		}
	}
}

func TestMatrixCodecPoolAlloc(t *testing.T) {
	m := New(4, 6)
	fillPattern(m.Data, 7)
	pool := NewPool()
	got, _, err := DecodeMatrix(AppendMatrix(nil, m), pool.GetUninit)
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(got.Data, m.Data) {
		t.Fatal("pool-alloc decode mismatch")
	}
	pool.Put(got)
	// The recycled buffer must be fully overwritten on the next decode.
	got2, _, err := DecodeMatrix(AppendMatrix(nil, m), pool.GetUninit)
	if err != nil || !bitsEqual(got2.Data, m.Data) {
		t.Fatalf("recycled decode mismatch (err %v)", err)
	}
}

func TestMatrixDecodeTruncatedAndCorrupt(t *testing.T) {
	m := New(3, 5)
	fillPattern(m.Data, 11)
	enc := AppendMatrix(nil, m)
	for cut := 0; cut < len(enc); cut++ {
		if _, _, err := DecodeMatrix(enc[:cut], nil); err == nil {
			t.Fatalf("truncation at %d of %d decoded without error", cut, len(enc))
		}
	}
	// A giant shape header over a tiny body must error before any
	// allocation is sized from it (the test would OOM otherwise).
	huge := []byte{0xff, 0xff, 0xff, 0x7f, 0xff, 0xff, 0xff, 0x7f, 1, 2, 3}
	if _, _, err := DecodeMatrix(huge, nil); err == nil {
		t.Fatal("giant header decoded without error")
	}
	// 1824726041 × 1263665316 = 2⁶¹+4 elements: the byte length 8·n wraps
	// to 32, exactly the body supplied, so only an element-count
	// comparison rejects it.
	wrap := binary.LittleEndian.AppendUint32(nil, 1824726041)
	wrap = binary.LittleEndian.AppendUint32(wrap, 1263665316)
	wrap = append(wrap, make([]byte, 32)...)
	if _, _, err := DecodeMatrix(wrap, nil); err == nil {
		t.Fatal("shape whose byte length wraps decoded without error")
	}
}

func TestSparseCodecRoundTrip(t *testing.T) {
	type tc struct {
		rows, cols int
		density    float64
	}
	cases := []tc{
		{3, 4, 0}, {3, 4, 0.25}, {3, 4, 1.0},
		{1, 100, 0.1}, {10, 10, 0.5}, {1, 1, 1.0}, {5, 7, 0},
	}
	for _, c := range cases {
		s := sparseWith(c.rows, c.cols, c.density, int64(c.rows*100+c.cols))
		enc := AppendSparse(nil, s)
		if len(enc) != EncodedSparseLen(s) {
			t.Fatalf("%dx%d@%g: encoded %d bytes, EncodedSparseLen says %d", c.rows, c.cols, c.density, len(enc), EncodedSparseLen(s))
		}
		got, rest, err := DecodeSparse(enc, nil)
		if err != nil {
			t.Fatalf("%dx%d@%g: decode: %v", c.rows, c.cols, c.density, err)
		}
		if got.Rows != s.Rows || got.Cols != s.Cols || got.NNZ() != s.NNZ() {
			t.Fatalf("%dx%d@%g: shape/nnz mismatch", c.rows, c.cols, c.density)
		}
		for i := range s.Indices {
			if got.Indices[i] != s.Indices[i] {
				t.Fatalf("%dx%d@%g: index %d mismatch", c.rows, c.cols, c.density, i)
			}
		}
		if !bitsEqual(got.Values, s.Values) {
			t.Fatalf("%dx%d@%g: value bits mismatch", c.rows, c.cols, c.density)
		}
		if len(rest) != 0 {
			t.Fatalf("%dx%d@%g: %d unconsumed bytes", c.rows, c.cols, c.density, len(rest))
		}
	}
}

func TestSparseDecodeTruncatedAndCorrupt(t *testing.T) {
	s := sparseWith(4, 8, 0.5, 42)
	enc := AppendSparse(nil, s)
	for cut := 0; cut < len(enc); cut++ {
		if _, _, err := DecodeSparse(enc[:cut], nil); err == nil {
			t.Fatalf("truncation at %d of %d decoded without error", cut, len(enc))
		}
	}

	corrupt := func(name string, mutate func(b []byte)) {
		b := append([]byte(nil), enc...)
		mutate(b)
		if _, _, err := DecodeSparse(b, nil); err == nil {
			t.Fatalf("%s decoded without error", name)
		}
	}
	// nnz > rows·cols.
	corrupt("oversized nnz", func(b []byte) { b[8], b[9] = 0xff, 0xff })
	// First index out of bounds (≥ 32 elements).
	corrupt("out-of-bounds index", func(b []byte) { b[12] = 200 })
	// Equal adjacent indices break strict ascent.
	corrupt("duplicate index", func(b []byte) { copy(b[16:20], b[12:16]) })
	// Descending indices.
	corrupt("descending index", func(b []byte) { b[12], b[16] = 30, 2; b[13], b[17] = 0, 0 })
}

func FuzzDecodeMatrix(f *testing.F) {
	m := New(3, 4)
	fillPattern(m.Data, 1)
	f.Add(AppendMatrix(nil, m))
	f.Add(AppendMatrix(nil, New(1, 0)))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, b []byte) {
		got, rest, err := DecodeMatrix(b, nil) // must never panic
		if err != nil {
			return
		}
		// A successful decode must re-encode to exactly the consumed bytes.
		enc := AppendMatrix(nil, got)
		if len(enc)+len(rest) != len(b) || !bytesEq(enc, b[:len(enc)]) {
			t.Fatalf("re-encode mismatch: %d+%d vs %d input bytes", len(enc), len(rest), len(b))
		}
	})
}

func FuzzDecodeSparse(f *testing.F) {
	f.Add(AppendSparse(nil, sparseWith(3, 4, 0.5, 2)))
	f.Add(AppendSparse(nil, sparseWith(2, 2, 1.0, 3)))
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		got, rest, err := DecodeSparse(b, nil) // must never panic
		if err != nil {
			return
		}
		enc := AppendSparse(nil, got)
		if len(enc)+len(rest) != len(b) || !bytesEq(enc, b[:len(enc)]) {
			t.Fatalf("re-encode mismatch: %d+%d vs %d input bytes", len(enc), len(rest), len(b))
		}
	})
}

func bytesEq(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
