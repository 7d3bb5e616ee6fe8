package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewZeroed(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("bad shape: %+v", m)
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("element %d = %v, want 0", i, v)
		}
	}
}

func TestFromSliceSharesBacking(t *testing.T) {
	d := []float64{1, 2, 3, 4}
	m := FromSlice(2, 2, d)
	m.Set(0, 0, 9)
	if d[0] != 9 {
		t.Fatal("FromSlice must not copy")
	}
}

func TestFromSlicePanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice(2, 2, []float64{1, 2, 3})
}

func TestAtSetRow(t *testing.T) {
	m := New(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Fatalf("At(1,2)=%v", m.At(1, 2))
	}
	r := m.Row(1)
	if r[2] != 7 {
		t.Fatalf("Row view broken: %v", r)
	}
	r[0] = 5
	if m.At(1, 0) != 5 {
		t.Fatal("Row must be a view")
	}
}

func TestCloneIndependence(t *testing.T) {
	m := FromSlice(1, 2, []float64{1, 2})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone must deep-copy")
	}
}

func TestAddSubScale(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 2, 3, 4})
	b := FromSlice(2, 2, []float64{4, 3, 2, 1})
	a.Add(b)
	want := []float64{5, 5, 5, 5}
	for i, v := range a.Data {
		if v != want[i] {
			t.Fatalf("Add: got %v", a.Data)
		}
	}
	a.Sub(b)
	if a.At(0, 0) != 1 || a.At(1, 1) != 4 {
		t.Fatalf("Sub: got %v", a.Data)
	}
	a.Scale(2)
	if a.At(0, 1) != 4 {
		t.Fatalf("Scale: got %v", a.Data)
	}
}

func TestAddScaled(t *testing.T) {
	a := FromSlice(1, 3, []float64{1, 1, 1})
	b := FromSlice(1, 3, []float64{1, 2, 3})
	a.AddScaled(0.5, b)
	want := []float64{1.5, 2, 2.5}
	for i, v := range a.Data {
		if v != want[i] {
			t.Fatalf("AddScaled: got %v", a.Data)
		}
	}
}

func TestHadamard(t *testing.T) {
	a := FromSlice(1, 3, []float64{1, 2, 3})
	b := FromSlice(1, 3, []float64{2, 2, 2})
	a.Hadamard(b)
	if a.At(0, 2) != 6 {
		t.Fatalf("Hadamard: got %v", a.Data)
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 2).Add(New(2, 3))
}

func TestTranspose(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	tr := m.T()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("T shape %dx%d", tr.Rows, tr.Cols)
	}
	if tr.At(2, 1) != 6 || tr.At(0, 1) != 4 {
		t.Fatalf("T values wrong: %v", tr.Data)
	}
}

func TestMatMulKnown(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	c := MatMul(a, b)
	want := []float64{58, 64, 139, 154}
	for i, v := range c.Data {
		if v != want[i] {
			t.Fatalf("MatMul: got %v want %v", c.Data, want)
		}
	}
}

func TestMatMulInnerMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMul(New(2, 3), New(2, 3))
}

func TestMatMulATMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := RandN(rng, 5, 4, 1)
	b := RandN(rng, 5, 3, 1)
	got := New(4, 3)
	MatMulATInto(got, a, b)
	want := MatMul(a.T(), b)
	if !got.Equal(want, 1e-12) {
		t.Fatal("MatMulATInto differs from aᵀ×b")
	}
}

func TestMatMulBTMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := RandN(rng, 5, 4, 1)
	b := RandN(rng, 3, 4, 1)
	got := New(5, 3)
	MatMulBTInto(got, a, b)
	want := MatMul(a, b.T())
	if !got.Equal(want, 1e-12) {
		t.Fatal("MatMulBTInto differs from a×bᵀ")
	}
}

func TestFrobeniusNorm(t *testing.T) {
	m := FromSlice(1, 2, []float64{3, 4})
	if got := m.FrobeniusNorm(); math.Abs(got-5) > 1e-12 {
		t.Fatalf("norm=%v want 5", got)
	}
}

func TestSumMeanAbsMax(t *testing.T) {
	m := FromSlice(1, 4, []float64{-4, 1, 2, 1})
	if m.Sum() != 0 {
		t.Fatalf("Sum=%v", m.Sum())
	}
	if m.Mean() != 0 {
		t.Fatalf("Mean=%v", m.Mean())
	}
	if m.AbsMax() != 4 {
		t.Fatalf("AbsMax=%v", m.AbsMax())
	}
}

func TestEqualTolerance(t *testing.T) {
	a := FromSlice(1, 1, []float64{1})
	b := FromSlice(1, 1, []float64{1 + 1e-9})
	if !a.Equal(b, 1e-8) {
		t.Fatal("should be equal within tol")
	}
	if a.Equal(b, 1e-10) {
		t.Fatal("should differ beyond tol")
	}
	if a.Equal(New(1, 2), 1) {
		t.Fatal("shape mismatch must be unequal")
	}
}

// TestEqualNaN: a NaN matches only a NaN at the same index, at any tol
// (NaN−x is NaN, which no "> tol" test catches), while equal infinities
// still match.
func TestEqualNaN(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		a, b []float64
		tol  float64
		want bool
	}{
		{[]float64{nan, 1}, []float64{5, 1}, 0, false},
		{[]float64{5, 1}, []float64{nan, 1}, 0, false},
		{[]float64{nan, 1}, []float64{5, 1}, inf, false},
		{[]float64{1, nan}, []float64{nan, 1}, 0, false},
		{[]float64{nan, 1}, []float64{nan, 1}, 0, true},
		{[]float64{inf, -inf}, []float64{inf, -inf}, 0, true},
		{[]float64{inf, 1}, []float64{-inf, 1}, 0, false},
	}
	for _, c := range cases {
		if got := FromSlice(1, 2, c.a).Equal(FromSlice(1, 2, c.b), c.tol); got != c.want {
			t.Errorf("%v.Equal(%v, %v) = %v, want %v", c.a, c.b, c.tol, got, c.want)
		}
	}
}

func TestSizeBytes(t *testing.T) {
	m := New(4, 8)
	if got := m.SizeBytes(2); got != 64 {
		t.Fatalf("SizeBytes=%d want 64", got)
	}
}

func TestDotAndNorm(t *testing.T) {
	if Dot([]float64{1, 2}, []float64{3, 4}) != 11 {
		t.Fatal("Dot wrong")
	}
	if math.Abs(Norm2([]float64{3, 4})-5) > 1e-12 {
		t.Fatal("Norm2 wrong")
	}
}

func TestCosineSimilarity(t *testing.T) {
	if got := CosineSimilarity([]float64{1, 0}, []float64{1, 0}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("parallel: %v", got)
	}
	if got := CosineSimilarity([]float64{1, 0}, []float64{0, 1}); math.Abs(got) > 1e-12 {
		t.Fatalf("orthogonal: %v", got)
	}
	if got := CosineSimilarity([]float64{0, 0}, []float64{1, 1}); got != 0 {
		t.Fatalf("zero-vector: %v", got)
	}
}

// Property: (A+B)+C == A+(B+C) element-wise (exact for these magnitudes is
// too strict for floats; use tolerance via quick.Check on small ints).
func TestAddAssociativeProperty(t *testing.T) {
	f := func(xs [6]int8) bool {
		a := FromSlice(1, 2, []float64{float64(xs[0]), float64(xs[1])})
		b := FromSlice(1, 2, []float64{float64(xs[2]), float64(xs[3])})
		c := FromSlice(1, 2, []float64{float64(xs[4]), float64(xs[5])})
		l := a.Clone().Add(b).Add(c)
		r := b.Clone().Add(c).Add(a)
		return l.Equal(r, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: transpose is an involution.
func TestTransposeInvolutionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(r8, c8 uint8) bool {
		r := int(r8%10) + 1
		c := int(c8%10) + 1
		m := RandN(rng, r, c, 1)
		return m.T().T().Equal(m, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: ‖A‖_F² == ‖Aᵀ‖_F².
func TestNormTransposeInvariantProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	f := func(r8, c8 uint8) bool {
		r := int(r8%10) + 1
		c := int(c8%10) + 1
		m := RandN(rng, r, c, 1)
		return math.Abs(m.FrobeniusNorm()-m.T().FrobeniusNorm()) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
