package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRandNStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m := RandN(rng, 200, 200, 2.0)
	mu := m.Mean()
	if math.Abs(mu) > 0.05 {
		t.Fatalf("mean %v too far from 0", mu)
	}
	va := Variance(m.Data)
	if math.Abs(va-4) > 0.2 {
		t.Fatalf("variance %v too far from 4", va)
	}
}

func TestRandUniformRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := RandUniform(rng, 50, 50, 0.5)
	for _, v := range m.Data {
		if v < -0.5 || v > 0.5 {
			t.Fatalf("value %v outside [-0.5, 0.5]", v)
		}
	}
}

func TestXavierInitScale(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := XavierInit(rng, 100, 100)
	bound := math.Sqrt(6.0 / 200.0)
	for _, v := range m.Data {
		if math.Abs(v) > bound {
			t.Fatalf("value %v outside Xavier bound %v", v, bound)
		}
	}
}

func TestGramSchmidtOrthonormal(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := RandN(rng, 20, 6, 1)
	GramSchmidt(m)
	for i := 0; i < m.Cols; i++ {
		for j := 0; j <= i; j++ {
			var dot float64
			for r := 0; r < m.Rows; r++ {
				dot += m.At(r, i) * m.At(r, j)
			}
			want := 0.0
			if i == j {
				want = 1.0
			}
			if math.Abs(dot-want) > 1e-9 {
				t.Fatalf("col %d·col %d = %v, want %v", i, j, dot, want)
			}
		}
	}
}

func TestGramSchmidtRankDeficient(t *testing.T) {
	// Two identical columns: the second must collapse to zero, not NaN.
	m := FromSlice(3, 2, []float64{1, 1, 2, 2, 3, 3})
	GramSchmidt(m)
	for r := 0; r < 3; r++ {
		if v := m.At(r, 1); v != 0 {
			t.Fatalf("dependent column should zero out, got %v", v)
		}
		if math.IsNaN(m.At(r, 0)) {
			t.Fatal("NaN in first column")
		}
	}
}

func TestSoftmaxRowsSumsToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := RandN(rng, 10, 7, 3)
	SoftmaxRows(m)
	for i := 0; i < m.Rows; i++ {
		var s float64
		for _, v := range m.Row(i) {
			if v < 0 || v > 1 {
				t.Fatalf("softmax value %v outside [0,1]", v)
			}
			s += v
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("row %d sums to %v", i, s)
		}
	}
}

func TestSoftmaxNumericalStability(t *testing.T) {
	m := FromSlice(1, 3, []float64{1000, 1000, 1000})
	SoftmaxRows(m)
	for _, v := range m.Data {
		if math.Abs(v-1.0/3.0) > 1e-9 {
			t.Fatalf("stable softmax failed: %v", m.Data)
		}
	}
}

func TestLogSumExp(t *testing.T) {
	got := LogSumExpRow([]float64{0, 0})
	if math.Abs(got-math.Log(2)) > 1e-12 {
		t.Fatalf("LSE=%v want ln2", got)
	}
	big := LogSumExpRow([]float64{1e4, 1e4})
	if math.Abs(big-(1e4+math.Log(2))) > 1e-9 {
		t.Fatalf("LSE overflow handling broken: %v", big)
	}
}

func TestGELUValues(t *testing.T) {
	m := FromSlice(1, 3, []float64{0, 10, -10})
	GELU(m)
	if m.At(0, 0) != 0 {
		t.Fatalf("GELU(0)=%v", m.At(0, 0))
	}
	if math.Abs(m.At(0, 1)-10) > 1e-6 {
		t.Fatalf("GELU(10)=%v, want ≈10", m.At(0, 1))
	}
	if math.Abs(m.At(0, 2)) > 1e-6 {
		t.Fatalf("GELU(-10)=%v, want ≈0", m.At(0, 2))
	}
}

func TestGELUGradMatchesFiniteDifference(t *testing.T) {
	const h = 1e-6
	for _, x := range []float64{-2, -0.5, 0, 0.3, 1.7} {
		a := FromSlice(1, 1, []float64{x + h})
		b := FromSlice(1, 1, []float64{x - h})
		GELU(a)
		GELU(b)
		fd := (a.At(0, 0) - b.At(0, 0)) / (2 * h)
		if g := GELUGrad(x); math.Abs(g-fd) > 1e-5 {
			t.Fatalf("GELUGrad(%v)=%v, finite diff %v", x, g, fd)
		}
	}
}

// TestGELUFromStashBitIdentical pins the one-tanh split against the
// expressions as they stood when forward and backward each took their own
// tanh: the activation formed from GELUTanh, and the derivative formed
// from (x, stashed tanh), carry the same bits over a sweep of inputs.
func TestGELUFromStashBitIdentical(t *testing.T) {
	const c = 0.7978845608028654
	refGELU := func(x float64) float64 {
		return 0.5 * x * (1 + math.Tanh(c*(x+0.044715*x*x*x)))
	}
	refGrad := func(x float64) float64 {
		t := math.Tanh(c * (x + 0.044715*x*x*x))
		dt := (1 - t*t) * c * (1 + 3*0.044715*x*x)
		return 0.5*(1+t) + 0.5*x*dt
	}
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
	}
	xs := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1e-300, 1e300, -1e300}
	for x := -12.0; x <= 12; x += 1.0 / 512 {
		xs = append(xs, x, x*1.0000001)
	}
	for _, x := range xs {
		th := GELUTanh(x)
		if got, want := 0.5*x*(1+th), refGELU(x); !same(got, want) {
			t.Fatalf("activation from GELUTanh at %v: %v, reference %v", x, got, want)
		}
		m := FromSlice(1, 1, []float64{x})
		if got, want := GELU(m).Data[0], refGELU(x); !same(got, want) {
			t.Fatalf("GELU(%v) = %v, reference %v", x, got, want)
		}
		if got, want := GELUGradFromTanh(x, th), refGrad(x); !same(got, want) {
			t.Fatalf("GELUGradFromTanh(%v) = %v, reference %v", x, got, want)
		}
		if got, want := GELUGrad(x), refGrad(x); !same(got, want) {
			t.Fatalf("GELUGrad(%v) = %v, reference %v", x, got, want)
		}
	}
}

func TestArgmaxRow(t *testing.T) {
	if ArgmaxRow([]float64{1, 5, 3}) != 1 {
		t.Fatal("argmax wrong")
	}
	if ArgmaxRow([]float64{-1, -5, -3}) != 0 {
		t.Fatal("argmax wrong on negatives")
	}
}

func TestClipInPlace(t *testing.T) {
	m := FromSlice(1, 3, []float64{-5, 0.5, 7})
	ClipInPlace(m, 1)
	want := []float64{-1, 0.5, 1}
	for i, v := range m.Data {
		if v != want[i] {
			t.Fatalf("clip: got %v", m.Data)
		}
	}
}

func TestMeanVariance(t *testing.T) {
	v := []float64{1, 2, 3, 4}
	if Mean(v) != 2.5 {
		t.Fatalf("Mean=%v", Mean(v))
	}
	if Variance(v) != 1.25 {
		t.Fatalf("Variance=%v", Variance(v))
	}
	if Mean(nil) != 0 || Variance(nil) != 0 {
		t.Fatal("empty-slice cases wrong")
	}
}

// Property: after Gram–Schmidt, reapplying it is a no-op (projection is
// idempotent on an already-orthonormal basis).
func TestGramSchmidtIdempotentProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(r8, c8 uint8) bool {
		r := int(r8%16) + 4
		c := int(c8%4) + 1
		if c > r {
			c = r
		}
		m := RandN(rng, r, c, 1)
		GramSchmidt(m)
		first := m.Clone()
		GramSchmidt(m)
		return m.Equal(first, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: softmax output is invariant to a constant shift of the logits.
func TestSoftmaxShiftInvarianceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	f := func(shift int8) bool {
		a := RandN(rng, 2, 5, 1)
		b := a.Clone().Apply(func(x float64) float64 { return x + float64(shift) })
		SoftmaxRows(a)
		SoftmaxRows(b)
		return a.Equal(b, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
