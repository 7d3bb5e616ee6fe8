package tensor

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

// HostFMA reports whether this CPU and OS run fused multiply-adds on the
// YMM registers (AVX usable and CPUID leaf 1 ECX bit 12). It is the
// condition under which the standard library's math.Exp takes its fused
// path on amd64, so results that pass through Exp have one set of bits on
// such hosts and another elsewhere.
func HostFMA() bool {
	const fma = 1 << 12
	return hasAVX() && cpuid1ECX()&fma != 0
}

// cpuid1ECX returns ECX of CPUID leaf 1.
func cpuid1ECX() uint32

// xgetbv0 returns the low half of XCR0.
func xgetbv0() uint32
