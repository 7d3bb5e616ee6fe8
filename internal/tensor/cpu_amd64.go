package tensor

// hasAVX reports whether the CPU has AVX and the OS saves the YMM
// registers across context switches: CPUID leaf 1 sets OSXSAVE (ECX bit
// 27) and AVX (ECX bit 28), and XCR0 enables the XMM and YMM state (bits 1
// and 2).
func hasAVX() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
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
	_, _, ecx, _ := cpuid(1, 0)
	return hasAVX() && ecx&fma != 0
}

// hasAVX2 reports whether AVX is usable and CPUID leaf 7 (sub-leaf 0)
// sets AVX2 (EBX bit 5), which the 256-bit integer instructions need.
func hasAVX2() bool {
	const avx2 = 1 << 5
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return hasAVX() && ebx&avx2 != 0
}

// cpuid returns the registers CPUID leaves for leaf (EAX) and sub-leaf
// (ECX).
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 returns the low half of XCR0.
func xgetbv0() uint32
