package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// The GELU oracles: geluForward and geluBackward on both paths against the
// scalar GELUTanh and GELUGradFromTanh, bit for bit. On an amd64 CPU with
// AVX2 and FMA the selected path is assembly that copies math.Exp's fused
// amd64 path lane by lane, so these tests are also what fails first if a
// Go release changes that path.

// geluWant returns the scalar references for inputs v, residuals x, tanh
// operands tb and upstream gradients dy: t = GELUTanh(v), out = x +
// 0.5·v·(1+t) and d = dy·GELUGradFromTanh(v, tb).
func geluWant(v, x, tb, dy []float64) (t, out, d []float64) {
	t, out, d = make([]float64, len(v)), make([]float64, len(v)), make([]float64, len(v))
	for j, vj := range v {
		t[j] = GELUTanh(vj)
		out[j] = x[j] + float64(0.5*vj*(1+t[j]))
		d[j] = dy[j] * GELUGradFromTanh(vj, tb[j])
	}
	return t, out, d
}

// TestGELURoutinesBitIdentical runs both GELU routines at every length
// 0…9 (the four-lane pass, the masked last pass and both together) on
// guarded, unaligned slices full of specials, the backward pass on tanh
// operands from GELUTanh and on arbitrary ones.
func TestGELURoutinesBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for n := 0; n <= 9; n++ {
		for trial := 0; trial < 16; trial++ {
			v, x, dy := routineValues(rng, n), routineValues(rng, n), routineValues(rng, n)
			tb := routineValues(rng, n)
			if trial%2 == 0 {
				for j, vj := range v {
					tb[j] = GELUTanh(vj)
				}
			}
			wantT, wantOut, wantD := geluWant(v, x, tb, dy)
			out, th := make([]float64, n), make([]float64, n)
			checkRoutine(t, rng, "geluForward", [][]float64{out, th, x, v}, []int{0, 1}, [][]float64{wantOut, wantT},
				func(k routines, s [][]float64) { k.geluForward(s[0], s[1], s[2], s[3]) })
			checkRoutine(t, rng, "geluForward into its x", [][]float64{x, th, v}, []int{0, 1}, [][]float64{wantOut, wantT},
				func(k routines, s [][]float64) { k.geluForward(s[0], s[1], s[0], s[2]) })
			checkRoutine(t, rng, "geluBackward", [][]float64{out, dy, v, tb}, []int{0}, [][]float64{wantD},
				func(k routines, s [][]float64) { k.geluBackward(s[0], s[1], s[2], s[3]) })
			checkRoutine(t, rng, "geluBackward into its dy", [][]float64{dy, v, tb}, []int{0}, [][]float64{wantD},
				func(k routines, s [][]float64) { k.geluBackward(s[0], s[0], s[1], s[2]) })
		}
	}
}

// TestGELURoutinesStayInBounds runs both routines at every length 0…9 on
// slices two elements into backing arrays whose other elements hold
// finite sentinels, one per array, and checks that no sentinel changed.
// (The guards of checkRoutine are a NaN, which a lane that loads one
// past the end carries unchanged into its store, so they cannot show a
// masked store one lane too wide.)
func TestGELURoutinesStayInBounds(t *testing.T) {
	const off, pad = 2, 6
	for n := 0; n <= 9; n++ {
		onEachPath(func(path string) {
			backings := make([][]float64, 4)
			s := make([][]float64, 4)
			for i := range backings {
				backings[i] = make([]float64, off+n+pad)
				for j := range backings[i] {
					backings[i][j] = float64(i + 2)
				}
				s[i] = backings[i][off : off+n]
			}
			for name, run := range map[string]func(){
				"geluForward":  func() { kern.geluForward(s[0], s[1], s[2], s[3]) },
				"geluBackward": func() { kern.geluBackward(s[0], s[1], s[2], s[3]) },
			} {
				run()
				for i, b := range backings {
					for j, v := range b {
						if (j < off || j >= off+n) && v != float64(i+2) {
							t.Fatalf("%s on the %s path, length %d: element %d of backing %d changed to %v", name, path, n, j, i, v)
						}
					}
				}
			}
		})
	}
}

// geluEdgeInput returns the float64 x > 0 nearest below which
// geluC·(x + 0.044715x³) first reaches edge, by bisection on the bits (the
// map is increasing for x > 0).
func geluEdgeInput(edge float64) float64 {
	u := func(x float64) float64 { return geluC * (x + float64(0.044715*x*x*x)) }
	lo, hi := math.Float64bits(0), math.Float64bits(edge*2)
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if u(math.Float64frombits(mid)) < edge {
			lo = mid
		} else {
			hi = mid
		}
	}
	return math.Float64frombits(hi)
}

// ulpWalk returns the 2n+1 float64s from n below x to n above it, ulp by
// ulp.
func ulpWalk(x float64, n int) []float64 {
	w := make([]float64, 0, 2*n+1)
	for v, i := x, 0; i < n; i++ {
		v = math.Nextafter(v, math.Inf(-1))
		w = append(w, v)
	}
	for i, j := 0, len(w)-1; i < j; i, j = i+1, j-1 {
		w[i], w[j] = w[j], w[i]
	}
	for v, i := x, 0; i <= n; i++ {
		w = append(w, v)
		v = math.Nextafter(v, math.Inf(1))
	}
	return w
}

// TestGELUSweep runs both routines over a large input sweep on both paths,
// against the scalar references, bit for bit: uniform draws at 16 scales
// from 1e-3 to 1e10, normal draws, walks of ±5,000 ulps (each sign) across
// the inputs where |u| = geluC·|x + 0.044715x³| crosses 0.625 (rational to
// Exp regime) and 0.5·MAXLOG (Exp regime to ±1), and specials: ±0, NaN,
// ±Inf, subnormals, ±1e308 and inputs whose cube overflows.
func TestGELUSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	var v []float64
	for i := 0; i < 16; i++ {
		scale := math.Pow(10, -3+13*float64(i)/15)
		for j := 0; j < 8000; j++ {
			v = append(v, scale*(2*rng.Float64()-1))
		}
	}
	for j := 0; j < 50000; j++ {
		v = append(v, rng.NormFloat64())
	}
	const maxlog = 8.8029691931113054295988e+01
	for _, edge := range []float64{0.625, 0.5 * maxlog} {
		x0 := geluEdgeInput(edge)
		walk := ulpWalk(x0, 5000)
		u := func(x float64) float64 { return math.Abs(geluC * (x + float64(0.044715*x*x*x))) }
		if !(u(walk[0]) < edge && u(walk[len(walk)-1]) > edge) {
			t.Fatalf("the walk around %v does not cross |u| = %v", x0, edge)
		}
		for _, x := range walk {
			v = append(v, x, -x)
		}
	}
	v = append(v, 0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308/3,
		1e308, -1e308, math.MaxFloat64, -math.MaxFloat64,
		1e103, -1e103, 6e102, -6e102, 1e200, -1e200)

	x, dy := make([]float64, len(v)), make([]float64, len(v))
	for j := range v {
		x[j], dy[j] = rng.NormFloat64(), rng.NormFloat64()
	}
	tb := make([]float64, len(v))
	for j, vj := range v {
		tb[j] = GELUTanh(vj)
	}
	wantT, wantOut, wantD := geluWant(v, x, tb, dy)
	onEachPath(func(path string) {
		out, th, d := make([]float64, len(v)), make([]float64, len(v)), make([]float64, len(v))
		kern.geluForward(out, th, x, v)
		kern.geluBackward(d, dy, v, tb)
		for _, c := range []struct {
			what      string
			got, want []float64
		}{{"t", th, wantT}, {"out", out, wantOut}, {"d", d, wantD}} {
			if i := bitDiff(FromSlice(1, len(v), c.got), FromSlice(1, len(v), c.want)); i >= 0 {
				t.Fatalf("GELU %s on the %s path at x = %v (%#x): %v (%#x), reference %v (%#x)", c.what, path,
					v[i], math.Float64bits(v[i]), c.got[i], math.Float64bits(c.got[i]), c.want[i], math.Float64bits(c.want[i]))
			}
		}
	})
}

// TestGELUIntoMatchesScalar: the exported wrappers run the routines on a
// matrix, with out = x allowed, and panic on a shape mismatch.
func TestGELUIntoMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	v, x, dy := RandN(rng, 3, 5, 2), RandN(rng, 3, 5, 1), RandN(rng, 3, 5, 1)
	tb := New(3, 5)
	for j, vj := range v.Data {
		tb.Data[j] = GELUTanh(vj)
	}
	wantT, wantOut, wantD := geluWant(v.Data, x.Data, tb.Data, dy.Data)
	onEachPath(func(path string) {
		out, th, d := x.Clone(), New(3, 5), New(3, 5)
		GELUForwardInto(out, th, out, v)
		GELUBackwardInto(d, dy, v, th)
		sameSlice(t, "GELUForwardInto t on the "+path+" path", th.Data, wantT)
		sameSlice(t, "GELUForwardInto out on the "+path+" path", out.Data, wantOut)
		sameSlice(t, "GELUBackwardInto on the "+path+" path", d.Data, wantD)
	})
	for name, f := range map[string]func(){
		"GELUForwardInto":  func() { GELUForwardInto(New(3, 5), New(3, 5), New(3, 5), New(5, 3)) },
		"GELUBackwardInto": func() { GELUBackwardInto(New(3, 5), New(3, 4), New(3, 5), New(3, 5)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with mismatched shapes did not panic", name)
				}
			}()
			f()
		}()
	}
}
