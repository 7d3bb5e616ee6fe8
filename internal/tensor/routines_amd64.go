//go:build amd64 && !race

// The race detector cannot see the memory accesses of assembly, so race
// builds keep the portable loops.

package tensor

// avx is every routine as an AVX assembly routine. Each does per element
// exactly the operations of its Go body, in the same order, four elements
// per YMM instruction (two per XMM one for 2-wide skinny rows) with a
// scalar tail: a multiply (VMULPD) and a separate add (VADDPD) per term,
// never a fused VFMADD, so every element gets the bits the Go body gives it.
var avx = routines{
	mulAdd4:     mulAdd4AVX,
	addScaled:   addScaledAVX,
	add:         addAVX,
	scale:       scaleAVX,
	skinnyRows4: skinnyRows4AVX,
	sgdStep:     sgdStepAVX,
}

func init() {
	if hasAVX() {
		kern = avx
	}
}

//go:noescape
func mulAdd4AVX(d []float64, a0, a1, a2, a3 float64, b []float64)

//go:noescape
func addScaledAVX(dst, a []float64, s float64, b []float64)

//go:noescape
func addAVX(d, s []float64)

//go:noescape
func scaleAVX(d []float64, s float64)

// skinnyRows4AVX keeps four 4-wide rows in four YMM registers (2-wide ones
// in XMM registers), so four independent sums are in flight, and per k
// step adds to each its broadcast a operand times the row of b they
// share; with skip set it tests each operand against 0 first (VUCOMISD: a
// NaN is not skipped).
//
//go:noescape
func skinnyRows4AVX(d []float64, w int, a []float64, rowStride, stride int, b []float64, skip bool)

// sgdStepAVX clamps with VMINPD against hi and then VMAXPD against lo, the
// bound the first source and the element the second: each returns its
// second source when either is NaN or both are zeros, so a NaN passes, and
// it picks the bound exactly when e > hi (e < lo) holds.
//
//go:noescape
func sgdStepAVX(p, g, vel []float64, s, mu, lo, hi float64)
