package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// Reference kernels: the straightforward triple loops the register-blocked
// kernels replaced, kept as the oracle. They state the kernel contract
// directly — every output element accumulates its terms over k in ascending
// order from +0, each product rounded before the add (float64(x*y): no
// fused multiply-add on any target), the axpy forms skipping a term exactly
// when the a operand is 0 and the dot form skipping nothing. Equality below
// is on the bit patterns (so −0 ≠ +0), which is the point: blocking must
// not change a single bit.

func refMatMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			av := a.At(i, k)
			if av == 0 {
				continue
			}
			for j := 0; j < b.Cols; j++ {
				out.Data[i*out.Cols+j] += float64(av * b.At(k, j))
			}
		}
	}
	return out
}

func refMatMulAT(a, b *Matrix) *Matrix {
	out := New(a.Cols, b.Cols)
	for k := 0; k < a.Rows; k++ {
		for i := 0; i < a.Cols; i++ {
			av := a.At(k, i)
			if av == 0 {
				continue
			}
			for j := 0; j < b.Cols; j++ {
				out.Data[i*out.Cols+j] += float64(av * b.At(k, j))
			}
		}
	}
	return out
}

func refMatMulBT(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += float64(a.At(i, k) * b.At(j, k))
			}
			out.Set(i, j, s)
		}
	}
	return out
}

// matmulKernels pairs each kernel with its reference. operands shapes
// (a, b) so that the product is n×m with k-term sums.
var matmulKernels = []struct {
	name     string
	operands func(n, k, m int) (ar, ac, br, bc int)
	kernel   func(dst, a, b *Matrix)
	ref      func(a, b *Matrix) *Matrix
}{
	{"MatMulInto", func(n, k, m int) (int, int, int, int) { return n, k, k, m }, MatMulInto, refMatMul},
	{"MatMulATInto", func(n, k, m int) (int, int, int, int) { return k, n, k, m }, MatMulATInto, refMatMulAT},
	{"MatMulBTInto", func(n, k, m int) (int, int, int, int) { return n, k, m, k }, MatMulBTInto, refMatMulBT},
}

// bitDiff returns the index of the first element whose bit pattern differs,
// or −1. Any NaN matches any NaN: which payload and sign an add of two NaNs
// (or Inf−Inf) yields depends on the operand order the compiler picked for
// a commutative instruction, which is not the kernels' to promise.
func bitDiff(got, want *Matrix) int {
	if got.Rows != want.Rows || got.Cols != want.Cols {
		return 0
	}
	for i, v := range got.Data {
		w := want.Data[i]
		if math.Float64bits(v) != math.Float64bits(w) && !(math.IsNaN(v) && math.IsNaN(w)) {
			return i
		}
	}
	return -1
}

// onEachPath runs f once on the routines that init selected (the AVX
// routines on an amd64 CPU that has it) and once on the portable loops,
// restoring the selection afterwards, also when f fails the test.
func onEachPath(f func(path string)) {
	selected := kern
	defer func() { kern = selected }()
	f("selected")
	kern = portable
	f("portable")
}

// guardBits fills offsetCopy's backing slice around the matrix: a NaN
// payload no kernel produces, checked bit for bit.
var guardBits = math.Float64frombits(0x7ff8_dead_beef_0001)

// offsetCopy returns a copy of m whose data starts off elements into a
// larger backing slice, so a vector load or store of it is unaligned for
// an odd off, plus the backing slice.
func offsetCopy(m *Matrix, off int) (*Matrix, []float64) {
	backing := make([]float64, off+len(m.Data)+4)
	for i := range backing {
		backing[i] = guardBits
	}
	v := FromSlice(m.Rows, m.Cols, backing[off:off+len(m.Data)])
	copy(v.Data, m.Data)
	return v, backing
}

// checkGuards fails unless every backing element outside [off, off+n)
// still holds guardBits: a kernel must not write past its dst.
func checkGuards(t testing.TB, what string, backing []float64, off, n int) {
	t.Helper()
	for i, x := range backing {
		if (i < off || i >= off+n) && math.Float64bits(x) != math.Float64bits(guardBits) {
			t.Fatalf("%s wrote backing element %d outside its dst [%d, %d)", what, i, off, off+n)
		}
	}
}

// checkKernels runs every kernel at (n, k, m) on operands from rng, on
// each routine path, and compares with its reference bit for bit. zeroFrac
// of a's elements become ±0 and specialFrac of b's become ±Inf or NaN, so
// a zero skip that is missed (0·Inf = NaN enters the sum) or invented
// shows up. Every operand starts 0–3 elements into a larger backing slice,
// so the vector loads and stores run unaligned too. dst starts full of
// NaN: the kernels must overwrite, not accumulate into, what they find,
// and must not touch the backing around it.
func checkKernels(t testing.TB, rng *rand.Rand, n, k, m int, zeroFrac, specialFrac float64) {
	t.Helper()
	for _, kn := range matmulKernels {
		ar, ac, br, bc := kn.operands(n, k, m)
		a, _ := offsetCopy(RandN(rng, ar, ac, 1), rng.Intn(4))
		b, _ := offsetCopy(RandN(rng, br, bc, 1), rng.Intn(4))
		for i := range a.Data {
			if rng.Float64() < zeroFrac {
				a.Data[i] = math.Copysign(0, rng.Float64()-0.5)
			}
		}
		specials := []float64{math.Inf(1), math.Inf(-1), math.NaN()}
		for i := range b.Data {
			if rng.Float64() < specialFrac {
				b.Data[i] = specials[rng.Intn(len(specials))]
			}
		}
		want := kn.ref(a, b)
		nan := New(n, m)
		nan.Fill(math.NaN())
		off := rng.Intn(4)
		onEachPath(func(path string) {
			got, backing := offsetCopy(nan, off)
			kn.kernel(got, a, b)
			if i := bitDiff(got, want); i >= 0 {
				t.Fatalf("%s on the %s path, %dx%dx%d (zeros %.2f, specials %.2f): element %d = %v, reference %v",
					kn.name, path, n, k, m, zeroFrac, specialFrac, i, got.Data[i], want.Data[i])
			}
			checkGuards(t, kn.name+" on the "+path+" path", backing, off, n*m)
		})
	}
}

// matmulShapes are (n, k, m) past the small exhaustive sweep: the shapes
// the trainer runs, ones straddling several blocks of four with every
// remainder, and a dst too large for cache.
var matmulShapes = []struct{ n, k, m int }{
	{16, 48, 48},
	{16, 144, 48},
	{16, 48, 32},
	{64, 64, 128},
	{71, 131, 137},
	{17, 300, 260},
}

// TestKernelsBitIdenticalSmallShapes sweeps every (n, k, m) in 1…9, so
// each combination of block-of-four remainders in every dimension runs —
// dense, with zeros sprinkled into a (including inside a block of four),
// and with zeros in a opposite ±Inf/NaN in b.
func TestKernelsBitIdenticalSmallShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for n := 1; n <= 9; n++ {
		for k := 1; k <= 9; k++ {
			for m := 1; m <= 9; m++ {
				checkKernels(t, rng, n, k, m, 0, 0)
				checkKernels(t, rng, n, k, m, 0.3, 0)
				checkKernels(t, rng, n, k, m, 0.3, 0.2)
			}
		}
	}
}

// TestKernelsBitIdenticalSkinny covers PowerSGD's factor shapes: a rank-r
// product has r columns (M·Q, Mᵀ·P) or r-term sums (P·Qᵀ).
func TestKernelsBitIdenticalSkinny(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for _, r := range []int{1, 2, 3, 4, 8} {
		for _, sh := range [][2]int{{16, 48}, {48, 16}, {128, 128}, {37, 53}} {
			for _, zf := range []float64{0, 0.2} {
				checkKernels(t, rng, sh[0], sh[1], r, zf, zf/2)
				checkKernels(t, rng, sh[0], r, sh[1], zf, zf/2)
			}
		}
	}
}

// TestKernelsAllZeroOperand: a fully zero a skips every term, so the
// result is +0 everywhere whatever b holds.
func TestKernelsAllZeroOperand(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	checkKernels(t, rng, 7, 9, 6, 1, 0.5)
}

func TestBlockedMatMulBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, sh := range matmulShapes {
		a := RandN(rng, sh.n, sh.k, 1)
		b := RandN(rng, sh.k, sh.m, 1)
		onEachPath(func(path string) {
			got := New(sh.n, sh.m)
			MatMulInto(got, a, b)
			if bitDiff(got, refMatMul(a, b)) >= 0 {
				t.Fatalf("MatMulInto on the %s path, %dx%dx%d, differs from reference", path, sh.n, sh.k, sh.m)
			}
		})
	}
}

func TestBlockedMatMulATBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, sh := range matmulShapes {
		a := RandN(rng, sh.k, sh.n, 1)
		b := RandN(rng, sh.k, sh.m, 1)
		onEachPath(func(path string) {
			got := New(sh.n, sh.m)
			MatMulATInto(got, a, b)
			if bitDiff(got, refMatMulAT(a, b)) >= 0 {
				t.Fatalf("MatMulATInto on the %s path, %dx%dx%d, differs from reference", path, sh.n, sh.k, sh.m)
			}
		})
	}
}

func TestBlockedMatMulATLargeDstBitIdentical(t *testing.T) {
	// A 300×300 dst (720KB) does not fit in cache next to its operands.
	rng := rand.New(rand.NewSource(43))
	a := RandN(rng, 40, 300, 1)
	b := RandN(rng, 40, 300, 1)
	onEachPath(func(path string) {
		got := New(300, 300)
		MatMulATInto(got, a, b)
		if bitDiff(got, refMatMulAT(a, b)) >= 0 {
			t.Fatalf("large-dst MatMulATInto on the %s path differs from reference", path)
		}
	})
}

func TestBlockedMatMulBTBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, sh := range matmulShapes {
		a := RandN(rng, sh.n, sh.k, 1)
		b := RandN(rng, sh.m, sh.k, 1)
		onEachPath(func(path string) {
			got := New(sh.n, sh.m)
			MatMulBTInto(got, a, b)
			if bitDiff(got, refMatMulBT(a, b)) >= 0 {
				t.Fatalf("MatMulBTInto on the %s path, %dx%dx%d, differs from reference", path, sh.n, sh.k, sh.m)
			}
		})
	}
}

// TestKernelsBitIdenticalWithZerosLargeShapes reruns the large shapes with
// zeros and specials, which the dense tests above never produce.
func TestKernelsBitIdenticalWithZerosLargeShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	for _, sh := range matmulShapes {
		checkKernels(t, rng, sh.n, sh.k, sh.m, 0.1, 0.05)
	}
}

// FuzzMatMulBitIdentical lets the fuzzer pick shapes, seeds and the
// density of zeros and specials.
func FuzzMatMulBitIdentical(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(5), uint8(4), uint8(0), uint8(0))
	f.Add(int64(2), uint8(16), uint8(48), uint8(2), uint8(40), uint8(0))
	f.Add(int64(3), uint8(9), uint8(13), uint8(11), uint8(80), uint8(60))
	f.Add(int64(4), uint8(1), uint8(1), uint8(1), uint8(255), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, n, k, m, zeros, specials uint8) {
		dim := func(v uint8) int { return 1 + int(v)%40 }
		rng := rand.New(rand.NewSource(seed))
		checkKernels(t, rng, dim(n), dim(k), dim(m), float64(zeros)/255, float64(specials)/255)
	})
}

// TestTInto checks TInto element by element at every shape in 1…9 × 1…9,
// so each remainder of its four-row blocks runs.
func TestTInto(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for r := 1; r <= 9; r++ {
		for c := 1; c <= 9; c++ {
			src := RandN(rng, r, c, 1)
			dst := New(c, r)
			TInto(dst, src)
			for i := 0; i < r; i++ {
				for j := 0; j < c; j++ {
					if dst.At(j, i) != src.At(i, j) {
						t.Fatalf("TInto %dx%d: dst[%d][%d] = %v, src[%d][%d] = %v", r, c, j, i, dst.At(j, i), i, j, src.At(i, j))
					}
				}
			}
		}
	}
}

func TestTIntoShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	TInto(New(2, 3), New(2, 3))
}

func TestAddScaledInto(t *testing.T) {
	a := FromSlice(1, 3, []float64{1, 2, 3})
	b := FromSlice(1, 3, []float64{10, 20, 30})
	dst := New(1, 3)
	AddScaledInto(dst, a, 0.5, b)
	want := []float64{6, 12, 18}
	for i, v := range dst.Data {
		if v != want[i] {
			t.Fatalf("AddScaledInto: got %v want %v", dst.Data, want)
		}
	}
	// Must match the allocating path bit-for-bit.
	alloc := a.Clone().AddScaled(0.5, b)
	if !dst.Equal(alloc, 0) {
		t.Fatal("AddScaledInto differs from Clone().AddScaled()")
	}
	// Aliasing dst with a is allowed.
	AddScaledInto(a, a, 0.5, b)
	if !a.Equal(alloc, 0) {
		t.Fatal("aliased AddScaledInto wrong")
	}
}

func TestRandNIntoMatchesRandN(t *testing.T) {
	r1 := rand.New(rand.NewSource(9))
	r2 := rand.New(rand.NewSource(9))
	fresh := RandN(r1, 6, 7, 0.5)
	reused := New(6, 7)
	reused.Fill(99) // stale contents must be fully overwritten
	RandNInto(r2, reused, 0.5)
	if !fresh.Equal(reused, 0) {
		t.Fatal("RandNInto differs from RandN for the same seed")
	}
}

// TestMatMulIntoZeroAlloc pins every kernel at 0 allocations per call
// once warm, on each path: MatMulBTInto's transposed b comes from a pool.
func TestMatMulIntoZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, sh := range []struct{ n, k, m int }{{64, 64, 64}, {4, 32, 32}, {37, 2, 53}} {
		for _, kn := range matmulKernels {
			ar, ac, br, bc := kn.operands(sh.n, sh.k, sh.m)
			a, b, dst := RandN(rng, ar, ac, 1), RandN(rng, br, bc, 1), New(sh.n, sh.m)
			onEachPath(func(path string) {
				if n := testing.AllocsPerRun(10, func() { kn.kernel(dst, a, b) }); n != 0 {
					t.Fatalf("%s on the %s path, %dx%dx%d, allocates %v per run", kn.name, path, sh.n, sh.k, sh.m, n)
				}
			})
		}
	}
}

// TestMatMulBTSkipsNoTerm pins the no-skip rule of MatMulBTInto by value,
// not only against its reference, on both of its traversals: a ±0
// opposite a ±Inf or NaN puts NaN into the sum, whichever operand holds
// the zero, while ±0 against finite values sums to +0. In the general form
// (b transposed) the specials sit inside a four-step (k = 1) and in the
// single step after it (k = 4); the small-batch form (a transposed) tests
// its multipliers for zero when it skips, and they come from b, so both
// placements of the zeros run.
func TestMatMulBTSkipsNoTerm(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	negZero := math.Copysign(0, -1)
	// zeros alternates +0 and −0 in its first row; the rest is −0.
	zeros := func(rows, cols int) *Matrix {
		z := New(rows, cols)
		for i := range z.Data {
			if i >= cols || i%2 == 1 {
				z.Data[i] = negZero
			}
		}
		return z
	}
	// specials holds −Inf at k = 1 in row 0 and NaN at k = 4 in row 1; the
	// rest is finite.
	specials := func(rows, cols int) *Matrix {
		m := New(rows, cols)
		for i := range m.Data {
			m.Data[i] = float64(i%7) - 3
		}
		m.Set(0, 1, -inf)
		m.Set(1, 4, nan)
		return m
	}
	for _, sh := range []struct {
		n, m, p     int
		transposesA bool
	}{
		{2, 5, 3, false},
		{4, 5, 3, false},
		{2, 9, 9, true},
		{4, 9, 9, true},
	} {
		if btTransposesA(sh.n, sh.m, sh.p) != sh.transposesA {
			t.Fatalf("%dx%d by (%dx%d)ᵀ: small-batch form %v, want %v", sh.n, sh.m, sh.p, sh.m, !sh.transposesA, sh.transposesA)
		}
		for _, zerosInA := range []bool{true, false} {
			a, b := zeros(sh.n, sh.m), specials(sh.p, sh.m)
			if !zerosInA {
				a, b = specials(sh.n, sh.m), zeros(sh.p, sh.m)
			}
			onEachPath(func(path string) {
				dst := New(sh.n, sh.p)
				MatMulBTInto(dst, a, b)
				for i := 0; i < sh.n; i++ {
					for j := 0; j < sh.p; j++ {
						v := dst.At(i, j)
						if wantNaN := zerosInA && j < 2 || !zerosInA && i < 2; wantNaN != math.IsNaN(v) || !wantNaN && (v != 0 || math.Signbit(v)) {
							t.Fatalf("%s path, %dx%dx%d, zeros in a %v: dst[%d][%d] = %v, want NaN against ±Inf or NaN and +0 otherwise",
								path, sh.n, sh.m, sh.p, zerosInA, i, j, v)
						}
					}
				}
			})
		}
	}
}
