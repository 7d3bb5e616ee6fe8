//go:build amd64 && !race

// The race detector cannot see the memory accesses of assembly, so race
// builds keep the portable loops.

package tensor

// avx is every routine but the GELU pair as an AVX assembly routine. Each
// does per element exactly the operations of its Go body, in the same
// order, four elements per YMM instruction (two per XMM one for 2-wide
// skinny rows) with a scalar tail: a multiply (VMULPD) and a separate add
// (VADDPD) per term, never a fused VFMADD, so every element gets the bits
// the Go body gives it. The AVX GELU pair (routinesFor) is the one place
// that fuses: exactly where math.Exp's amd64 assembly does, and nowhere
// else, since its Go body's bits are math.Tanh's.
var avx = routines{
	mulAdd4:      mulAdd4AVX,
	addScaled:    addScaledAVX,
	add:          addAVX,
	scale:        scaleAVX,
	skinnyRows4:  skinnyRows4AVX,
	sgdStep:      sgdStepAVX,
	geluForward:  geluForwardGo,
	geluBackward: geluBackwardGo,
}

func init() {
	kern = routinesFor(hasAVX(), HostFMA() && hasAVX2())
}

// routinesFor returns the routines for a CPU with AVX (avxOK) and with AVX2
// and FMA (fusedExp). The AVX GELU pair follows math.Exp's fused path, the
// one Exp takes exactly when HostFMA holds, and needs AVX2 for its 256-bit
// integer steps; every other host keeps the Go GELU, which calls math.Tanh
// itself. Either way a host gets the bits math.Tanh gives on it.
func routinesFor(avxOK, fusedExp bool) routines {
	if !avxOK {
		return portable
	}
	k := avx
	if fusedExp {
		k.geluForward, k.geluBackward = geluForwardAVX, geluBackwardAVX
	}
	return k
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

// geluForwardAVX runs math.tanh's three regimes on every lane and blends
// them, its Exp a copy of math.Exp's fused amd64 path (gelu_amd64.s).
//
//go:noescape
func geluForwardAVX(out, t, x, v []float64)

//go:noescape
func geluBackwardAVX(d, dy, v, t []float64)
