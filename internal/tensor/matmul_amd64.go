//go:build amd64 && !race

// The race detector cannot see the memory accesses of assembly, so race
// builds keep the portable loop.

package tensor

func init() {
	if hasAVX() {
		mulAdd4 = mulAdd4AVX
	}
}

// hasAVX reports whether the CPU has AVX and the OS saves the YMM
// registers across context switches: CPUID leaf 1 sets OSXSAVE (ECX bit
// 27) and AVX (ECX bit 28), and XCR0 enables the XMM and YMM state (bits 1
// and 2).
func hasAVX() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx := cpuid1ECX(); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	return xgetbv0()&6 == 6
}

// cpuid1ECX returns ECX of CPUID leaf 1.
func cpuid1ECX() uint32

// xgetbv0 returns the low half of XCR0.
func xgetbv0() uint32

// mulAdd4AVX is mulAdd4 four d elements per instruction: for each lane it
// loads d[j], multiplies (VMULPD) and adds (VADDPD) a0·b0[j] … a3·b3[j] in
// k order, and stores d[j]; a scalar multiply and add per term finish the
// len(d) % 4 tail. It never fuses a multiply into an add, so every element
// gets the bits mulAdd4Go gives it.
//
//go:noescape
func mulAdd4AVX(d []float64, a0, a1, a2, a3 float64, b []float64)
