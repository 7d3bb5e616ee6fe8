package tensor

import (
	"math"
	"math/rand"
)

// RandN fills a new rows×cols matrix with N(0, std²) samples from rng.
func RandN(rng *rand.Rand, rows, cols int, std float64) *Matrix {
	m := New(rows, cols)
	RandNInto(rng, m, std)
	return m
}

// RandNInto fills dst with N(0, std²) samples from rng without allocating,
// drawing in the same element order as RandN (so reusing a buffer is
// bit-identical to allocating a fresh one).
func RandNInto(rng *rand.Rand, dst *Matrix, std float64) {
	for i := range dst.Data {
		dst.Data[i] = rng.NormFloat64() * std
	}
}

// RandUniform fills a new rows×cols matrix with U(-a, a) samples.
func RandUniform(rng *rand.Rand, rows, cols int, a float64) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		// Rounded on its own, so the scaling inside Float64 cannot fuse
		// into the doubling, nor the doubling into the subtraction.
		u := float64(rng.Float64())
		m.Data[i] = (float64(u*2) - 1) * a
	}
	return m
}

// XavierInit returns a fanIn×fanOut matrix initialized with the Glorot
// uniform scheme, the standard initialization for the MLP stand-in model.
func XavierInit(rng *rand.Rand, fanIn, fanOut int) *Matrix {
	a := math.Sqrt(6.0 / float64(fanIn+fanOut))
	return RandUniform(rng, fanIn, fanOut, a)
}

// GramSchmidt orthonormalizes the columns of m in place (modified
// Gram–Schmidt). Near-zero columns are replaced with zeros rather than
// blowing up — PowerSGD calls this on random sketches, where exact rank
// deficiency is measure-zero but numerically possible.
//
// This is the orthogonalization phase the paper identifies as ~80% of the
// compression cost in §9.6.
func GramSchmidt(m *Matrix) {
	cols := m.Cols
	rows := m.Rows
	for j := 0; j < cols; j++ {
		// Subtract projections onto previous columns.
		for k := 0; k < j; k++ {
			var dot float64
			for i := 0; i < rows; i++ {
				dot += float64(m.Data[i*cols+j] * m.Data[i*cols+k])
			}
			for i := 0; i < rows; i++ {
				m.Data[i*cols+j] -= float64(dot * m.Data[i*cols+k])
			}
		}
		var norm float64
		for i := 0; i < rows; i++ {
			v := m.Data[i*cols+j]
			norm += float64(v * v)
		}
		norm = math.Sqrt(norm)
		if norm < 1e-12 {
			for i := 0; i < rows; i++ {
				m.Data[i*cols+j] = 0
			}
			continue
		}
		inv := 1 / norm
		for i := 0; i < rows; i++ {
			m.Data[i*cols+j] *= inv
		}
	}
}

// SoftmaxRows applies a numerically stable softmax to each row in place.
func SoftmaxRows(m *Matrix) {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		mx := math.Inf(-1)
		for _, v := range row {
			if v > mx {
				mx = v
			}
		}
		var sum float64
		for j, v := range row {
			e := math.Exp(v - mx)
			row[j] = e
			sum += e
		}
		inv := 1 / sum
		for j := range row {
			row[j] *= inv
		}
	}
}

// LogSumExpRow returns log Σ exp(row) computed stably.
func LogSumExpRow(row []float64) float64 {
	mx := math.Inf(-1)
	for _, v := range row {
		if v > mx {
			mx = v
		}
	}
	if math.IsInf(mx, -1) {
		return mx
	}
	var s float64
	for _, v := range row {
		s += math.Exp(v - mx)
	}
	return mx + math.Log(s)
}

// geluC is sqrt(2/pi), the scale inside the tanh-approximation GELU.
const geluC = 0.7978845608028654

// GELUTanh returns t = tanh(c·(x + 0.044715x³)), the one transcendental of
// the tanh-approximation GELU: the activation is 0.5x(1+t) and its
// derivative follows from (x, t) alone (GELUGradFromTanh), so a forward
// pass that keeps t spares the backward pass the second tanh.
func GELUTanh(x float64) float64 {
	return math.Tanh(geluC * (x + float64(0.044715*x*x*x)))
}

// GELU applies the tanh-approximation GELU activation in place, matching
// the activation used in the Megatron-LM transformer block (Fig. 2).
func GELU(m *Matrix) *Matrix {
	return m.Apply(func(x float64) float64 {
		return 0.5 * x * (1 + GELUTanh(x))
	})
}

// GELUGrad returns dGELU/dx evaluated element-wise at x (tanh approximation).
func GELUGrad(x float64) float64 {
	return GELUGradFromTanh(x, GELUTanh(x))
}

// GELUGradFromTanh returns dGELU/dx at x given t = GELUTanh(x) — the same
// operations in the same order as GELUGrad, so the same bits.
func GELUGradFromTanh(x, t float64) float64 {
	dt := (1 - float64(t*t)) * geluC * (1 + float64(3*0.044715*x*x))
	return float64(0.5*(1+t)) + float64(0.5*x*dt)
}

// GELUForwardInto runs a residual block's activation: element by element
// t = GELUTanh(v), then out = x + 0.5·v·(1+t), the activation rounded on
// its own before the residual add. t keeps the tanh for GELUBackwardInto.
// All four have one shape; out may be x.
func GELUForwardInto(out, t, x, v *Matrix) {
	out.mustSameShape(t, "GELUForwardInto")
	out.mustSameShape(x, "GELUForwardInto")
	out.mustSameShape(v, "GELUForwardInto")
	n := len(out.Data)
	kern.geluForward(out.Data, t.Data[:n], x.Data[:n], v.Data[:n])
}

// GELUBackwardInto sets d = dy·GELUGradFromTanh(v, t) element by element,
// from the t that GELUForwardInto kept for v. All four have one shape; d
// may be dy.
func GELUBackwardInto(d, dy, v, t *Matrix) {
	d.mustSameShape(dy, "GELUBackwardInto")
	d.mustSameShape(v, "GELUBackwardInto")
	d.mustSameShape(t, "GELUBackwardInto")
	n := len(d.Data)
	kern.geluBackward(d.Data, dy.Data[:n], v.Data[:n], t.Data[:n])
}

// ArgmaxRow returns the index of the largest value in row.
func ArgmaxRow(row []float64) int {
	best, bi := math.Inf(-1), 0
	for j, v := range row {
		if v > best {
			best, bi = v, j
		}
	}
	return bi
}

// ClipInPlace clamps every element of m to [-c, c]. Gradient clipping keeps
// the tiny stand-in model stable under aggressive compression.
func ClipInPlace(m *Matrix, c float64) {
	for i, v := range m.Data {
		if v > c {
			m.Data[i] = c
		} else if v < -c {
			m.Data[i] = -c
		}
	}
}

// SGDStep applies one momentum-SGD update to p from its gradient g, which
// it leaves unchanged. Element by element: e = g clipped to [−clip, clip]
// when clip > 0 (e > clip gives clip, else e < −clip gives −clip, so a NaN
// passes); then, when vel is not nil, e = vel·mu + e, which becomes the
// new vel; then p += s·e. Each product is rounded on its own before it is
// added. s is the negated learning rate.
func SGDStep(p, g, vel *Matrix, s, mu, clip float64) {
	p.mustSameShape(g, "SGDStep")
	n := len(p.Data)
	var v []float64
	if vel != nil {
		p.mustSameShape(vel, "SGDStep")
		v = vel.Data[:n]
	}
	lo, hi := math.Inf(-1), math.Inf(1)
	if clip > 0 {
		lo, hi = -clip, clip
	}
	kern.sgdStep(p.Data, g.Data[:n], v, s, mu, lo, hi)
}

// Mean returns the arithmetic mean of v, or 0 for an empty slice.
func Mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// Variance returns the population variance of v.
func Variance(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	mu := Mean(v)
	var s float64
	for _, x := range v {
		d := x - mu
		s += float64(d * d)
	}
	return s / float64(len(v))
}
