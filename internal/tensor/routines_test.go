package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// The routine oracles: every routine in routines runs on both paths
// (onEachPath) against a scalar reference written from its per-element
// contract, compared on the bit patterns, at every length 0…9 (so the
// four-lane body, the scalar tail and both together run) with each slice
// starting 0–3 elements into a guarded backing slice (so vector loads and
// stores run unaligned and must stay inside their slice).

// specialValues are the operands besides N(0, 1) draws a routine must
// carry through unchanged in kind: signed zeros, infinities, NaN and
// subnormals.
var specialValues = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	5e-324, -5e-324, math.SmallestNonzeroFloat64 * 1e10, -2.2250738585072014e-308 / 3,
}

// routineValues returns n draws from rng, a quarter of them specials.
func routineValues(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		if rng.Intn(4) == 0 {
			v[i] = specialValues[rng.Intn(len(specialValues))]
		} else {
			v[i] = rng.NormFloat64()
		}
	}
	return v
}

// placed copies v to a random offset 0–3 into a guarded backing slice.
func placed(rng *rand.Rand, v []float64) (s, backing []float64, off int) {
	off = rng.Intn(4)
	m, backing := offsetCopy(FromSlice(1, len(v), v), off)
	return m.Data, backing, off
}

// sameSlice fails unless got and want match element for element on the
// bits (any NaN matching any NaN, as in bitDiff).
func sameSlice(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if i := bitDiff(FromSlice(1, len(got), got), FromSlice(1, len(want), want)); i >= 0 {
		t.Fatalf("%s: element %d = %v (%#x), reference %v (%#x)", what, i,
			got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
	}
}

// checkRoutine runs run on both paths over a fresh placement of each input
// and compares every output with want, then checks the guards around it.
func checkRoutine(t *testing.T, rng *rand.Rand, what string, inputs [][]float64, outs []int, want [][]float64, run func(k routines, s [][]float64)) {
	t.Helper()
	onEachPath(func(path string) {
		s := make([][]float64, len(inputs))
		backings := make([][]float64, len(inputs))
		offs := make([]int, len(inputs))
		for i, in := range inputs {
			s[i], backings[i], offs[i] = placed(rng, in)
		}
		run(kern, s)
		for i, o := range outs {
			sameSlice(t, what+" on the "+path+" path", s[o], want[i])
		}
		for i := range inputs {
			checkGuards(t, what+" on the "+path+" path", backings[i], offs[i], len(inputs[i]))
		}
	})
}

func TestRoutinesBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for n := 0; n <= 9; n++ {
		for trial := 0; trial < 8; trial++ {
			d, a, b := routineValues(rng, n), routineValues(rng, n), routineValues(rng, n)
			s := rng.NormFloat64()
			if trial%4 == 3 {
				s = specialValues[rng.Intn(len(specialValues))]
			}

			want := make([]float64, n)
			for j := range want {
				want[j] = a[j] + float64(s*b[j])
			}
			checkRoutine(t, rng, "addScaled", [][]float64{d, a, b}, []int{0}, [][]float64{want},
				func(k routines, v [][]float64) { k.addScaled(v[0], v[1], s, v[2]) })
			checkRoutine(t, rng, "addScaled into its a", [][]float64{a, b}, []int{0}, [][]float64{want},
				func(k routines, v [][]float64) { k.addScaled(v[0], v[0], s, v[1]) })

			for j := range want {
				want[j] = d[j] + a[j]
			}
			checkRoutine(t, rng, "add", [][]float64{d, a}, []int{0}, [][]float64{want},
				func(k routines, v [][]float64) { k.add(v[0], v[1]) })

			for j := range want {
				want[j] = d[j] * s
			}
			checkRoutine(t, rng, "scale", [][]float64{d}, []int{0}, [][]float64{want},
				func(k routines, v [][]float64) { k.scale(v[0], s) })

			b4 := routineValues(rng, 4*n)
			c := [4]float64{rng.NormFloat64(), s, rng.NormFloat64(), rng.NormFloat64()}
			for j := range want {
				v := d[j]
				for i, ci := range c {
					v += float64(ci * b4[i*n+j])
				}
				want[j] = v
			}
			checkRoutine(t, rng, "mulAdd4", [][]float64{d, b4}, []int{0}, [][]float64{want},
				func(k routines, v [][]float64) { k.mulAdd4(v[0], c[0], c[1], c[2], c[3], v[1]) })
		}
	}
}

// TestSkinnyRowsBitIdentical runs skinnyRows for 0…9 rows of width 2 and
// 4 (groups of four and the rows left over) and 0…9 k steps, with a read
// by rows (stride 1) and by columns, with and without the zero skip, on
// operands full of zeros and specials.
func TestSkinnyRowsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, w := range []int{2, 4} {
		for rows := 0; rows <= 9; rows++ {
			for steps := 0; steps <= 9; steps++ {
				for _, byCols := range []bool{false, true} {
					for _, skip := range []bool{false, true} {
						d, a, b := routineValues(rng, rows*w), routineValues(rng, rows*steps), routineValues(rng, steps*w)
						rowStride, stride := steps, 1
						if byCols {
							rowStride, stride = 1, rows
						}
						want := append([]float64(nil), d...)
						for r := 0; r < rows; r++ {
							for k := 0; k < steps; k++ {
								av := a[r*rowStride+k*stride]
								if skip && av == 0 {
									continue
								}
								for j := 0; j < w; j++ {
									want[r*w+j] += float64(av * b[k*w+j])
								}
							}
						}
						checkRoutine(t, rng, "skinnyRows", [][]float64{d, a, b}, []int{0}, [][]float64{want},
							func(_ routines, v [][]float64) { skinnyRows(v[0], w, v[1], rowStride, stride, v[2], skip) })
					}
				}
			}
		}
	}
}

// TestSGDStepRoutineBitIdentical runs sgdStep at every length 0…9 with
// and without momentum and clipping, on gradients and velocities full of
// specials.
func TestSGDStepRoutineBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	inf := math.Inf(1)
	for n := 0; n <= 9; n++ {
		for trial := 0; trial < 8; trial++ {
			p, g, vel := routineValues(rng, n), routineValues(rng, n), routineValues(rng, n)
			s, mu := -rng.Float64(), rng.Float64()
			lo, hi := -inf, inf
			if trial%2 == 1 {
				hi = math.Abs(rng.NormFloat64())
				lo = -hi
			}
			wantP, wantV := append([]float64(nil), p...), append([]float64(nil), vel...)
			for j, e := range g {
				if e > hi {
					e = hi
				} else if e < lo {
					e = lo
				}
				e = float64(wantV[j]*mu) + e
				wantV[j] = e
				wantP[j] += float64(s * e)
			}
			checkRoutine(t, rng, "sgdStep with momentum", [][]float64{p, g, vel}, []int{0, 2}, [][]float64{wantP, wantV},
				func(k routines, v [][]float64) { k.sgdStep(v[0], v[1], v[2], s, mu, lo, hi) })

			wantP = append(wantP[:0], p...)
			for j, e := range g {
				if e > hi {
					e = hi
				} else if e < lo {
					e = lo
				}
				wantP[j] += float64(s * e)
			}
			checkRoutine(t, rng, "sgdStep without momentum", [][]float64{p, g}, []int{0, 1}, [][]float64{wantP, g},
				func(k routines, v [][]float64) { k.sgdStep(v[0], v[1], nil, s, mu, lo, hi) })
		}
	}
}

// TestSGDStepClip pins SGDStep's clip by value, on both paths, for the
// values where a vector min/max and Go's comparisons could part: NaN
// passes; ±0 keep their sign; ±Inf, and anything beyond ±clip, become
// ±clip; exactly ±clip and their inner neighbours stay; subnormals stay.
// Parameters start at −0 and the step is s = 1, so with momentum off the
// parameter ends holding the clipped gradient itself (−0 + e = e, also
// for e = ±0); with momentum on, the velocity starts at −0 and ends
// holding it too (−0·μ + e = e).
func TestSGDStepClip(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, clip := range []float64{1, 5e-324 * 3, 0} {
		up, down := math.Nextafter(clip, math.Inf(1)), math.Nextafter(clip, 0)
		table := []struct{ g, want float64 }{
			{math.NaN(), math.NaN()},
			{0, 0},
			{negZero, negZero},
			{math.Inf(1), clip},
			{math.Inf(-1), -clip},
			{clip, clip},
			{-clip, -clip},
			{up, clip},
			{-up, -clip},
			{down, down},
			{-down, -down},
			{5e-324, min(5e-324, clip)},
			{-5e-324, -min(5e-324, clip)},
			{2.5, min(2.5, clip)},
			{-2.5, -min(2.5, clip)},
		}
		if clip == 0 { // off: every gradient passes as it is
			for i := range table {
				table[i].want = table[i].g
			}
		}
		for _, momentum := range []bool{false, true} {
			onEachPath(func(path string) {
				// The whole table at once (four-lane body and tail), then each
				// entry alone (tail only).
				for _, span := range append([][2]int{{0, len(table)}}, spans(len(table))...) {
					n := span[1] - span[0]
					g, p := New(1, n), New(1, n)
					p.Fill(negZero)
					var vel *Matrix
					if momentum {
						vel = New(1, n)
						vel.Fill(negZero)
					}
					for i := range n {
						g.Data[i] = table[span[0]+i].g
					}
					SGDStep(p, g, vel, 1, 0.5, clip)
					for i := range n {
						want := table[span[0]+i].want
						for _, got := range []*Matrix{p, vel} {
							if got == nil {
								continue
							}
							v := got.Data[i]
							if math.Float64bits(v) != math.Float64bits(want) && !(math.IsNaN(v) && math.IsNaN(want)) {
								t.Fatalf("%s path, clip %v, momentum %v: gradient %v gave %v, want %v",
									path, clip, momentum, g.Data[i], v, want)
							}
						}
					}
				}
			})
		}
	}
}

// spans returns [i, i+1) for every i < n.
func spans(n int) [][2]int {
	s := make([][2]int, n)
	for i := range s {
		s[i] = [2]int{i, i + 1}
	}
	return s
}
