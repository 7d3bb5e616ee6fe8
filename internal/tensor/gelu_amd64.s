//go:build amd64 && !race

#include "textflag.h"

// The constants of the GELU routines, each four times over (one YMM
// operand), as the bits of the Go constants and of the standard library's
// tables: math.tanh's P/Q coefficients and 0.5·MAXLOG bound, and the
// reduction and Taylor constants of math.Exp's amd64 assembly.
#define K4(off, bits) \
	DATA geluK<>+(off)(SB)/8, $bits;    \
	DATA geluK<>+(off+8)(SB)/8, $bits;  \
	DATA geluK<>+(off+16)(SB)/8, $bits; \
	DATA geluK<>+(off+24)(SB)/8, $bits

K4(0, 0x7fffffffffffffff)   // |·| mask
K4(32, 0x8000000000000000)  // sign mask
K4(64, 0x3fa6e4e26d4801f7)  // 0.044715
K4(96, 0x3fe9884533d43651)  // geluC = sqrt(2/π)
K4(128, 0x404601e678fc457b) // 0.5·MAXLOG
K4(160, 0x3fe4000000000000) // 0.625
K4(192, 0x3ff71547652b82fe) // log2(e)
K4(224, 0x3fe62e42fefa3000) // ln 2, upper part
K4(256, 0x3d53de6af278ece6) // ln 2, lower part
K4(288, 0x3fb0000000000000) // 0.0625
K4(320, 0x3efa01a01a01a01a) // 1/8!
K4(352, 0x3f2a01a01a01a01a) // 1/7!
K4(384, 0x3f56c16c16c16c17) // 1/6!
K4(416, 0x3f81111111111111) // 1/5!
K4(448, 0x3fa5555555555555) // 1/4!
K4(480, 0x3fc5555555555555) // 1/3!
K4(512, 0x3fe0000000000000) // 0.5
K4(544, 0x3ff0000000000000) // 1
K4(576, 0x4000000000000000) // 2
K4(608, 0x00000000000003ff) // exponent bias, an int64
K4(640, 0xbfeedc5baafd6f4b) // tanhP[0]
K4(672, 0xc058d26a0e26682d) // tanhP[1]
K4(704, 0xc0993ac030580563) // tanhP[2]
K4(736, 0x405c33f28a581b86) // tanhQ[0]
K4(768, 0x40a176fa0e5535fa) // tanhQ[1]
K4(800, 0x40b2ec102442040c) // tanhQ[2]
K4(832, 0x3fc12ba9d1f60179) // 3·0.044715
K4(864, 0xffffffffffffffff) // lane masks: four set lanes, then
K4(896, 0x0000000000000000) // four clear ones
GLOBL geluK<>(SB), RODATA|NOPTR, $928

#define ABS geluK<>+0(SB)
#define SIGN geluK<>+32(SB)
#define C044715 geluK<>+64(SB)
#define GELUC geluK<>+96(SB)
#define HALFMAXLOG geluK<>+128(SB)
#define C0625 geluK<>+160(SB)
#define LOG2E geluK<>+192(SB)
#define LN2U geluK<>+224(SB)
#define LN2L geluK<>+256(SB)
#define SIXTEENTH geluK<>+288(SB)
#define E8 geluK<>+320(SB)
#define E7 geluK<>+352(SB)
#define E6 geluK<>+384(SB)
#define E5 geluK<>+416(SB)
#define E4 geluK<>+448(SB)
#define E3 geluK<>+480(SB)
#define HALF geluK<>+512(SB)
#define ONE geluK<>+544(SB)
#define TWO geluK<>+576(SB)
#define BIAS geluK<>+608(SB)
#define P0 geluK<>+640(SB)
#define P1 geluK<>+672(SB)
#define P2 geluK<>+704(SB)
#define Q0 geluK<>+736(SB)
#define Q1 geluK<>+768(SB)
#define Q2 geluK<>+800(SB)
#define C3 geluK<>+832(SB)
#define MASKS geluK<>+864(SB)

// LASTMASK sets Y15 to a mask of the first CX (1–3) lanes: the four
// entries of the mask table that start 4−CX entries in. BX and R9 are
// clobbered.
#define LASTMASK \
	MOVQ    $4, BX;         \
	SUBQ    CX, BX;         \
	LEAQ    MASKS, R9;      \
	VMOVUPD (R9)(BX*8), Y15

// func geluForwardAVX(out, t, x, v []float64)
//
// Four elements per pass; the last 1–3 go through the same pass with
// VMASKMOVPD loads and stores under the lane mask Y15 (masked lanes load
// as +0 and are never stored). DI walks out, R8 t, SI x and DX v by the
// byte offset AX; CX counts the elements left. Y14 holds 1 and Y13 2.
//
// Per lane this is GELUTanh and then the residual add, the operations of
// the compiled Go in its order. u = geluC·(v + ((0.044715·v)·v)·v); then
// the three regimes of math.tanh are all evaluated and blended, with z =
// |u|: z > 0.5·MAXLOG gives ±1; z ≥ 0.625 gives 1 − 2/(Exp(2z)+1) with u's
// sign; otherwise u + ((u·s)·P(s))/Q(s) for s = u·u, except that u = ±0
// gives u itself. Comparisons are ordered, so a NaN u takes the rational
// lane, as in math.tanh.
//
// Exp(2z) is math.Exp's amd64 assembly on a CPU with AVX and FMA (the
// avxfma path of exp_amd64.s, which math.Exp takes exactly when HostFMA
// holds), one instruction per instruction: k = 2z·log2(e) rounded to
// nearest (VCVTPD2DQ, as CVTSD2SL); 2z − k·ln2U and then − k·ln2L, each
// fused (VFNMADD231PD); ×0.0625; the seven fused Taylor steps; four
// squarings r·(r+2), the last fused with +1; times 2^k built in the
// exponent field. For z in [0.625, 0.5·MAXLOG], k lies in [2, 127], so
// Exp's denormal and overflow branches never apply; lanes outside that
// range compute garbage that the blend discards. These are the only fused
// operations in the package. If a Go release changes exp_amd64.s, the bit
// tests against math.Tanh (TestGELURoutinesBitIdentical, TestGELUSweep)
// fail on the first CI run with that release.
TEXT ·geluForwardAVX(SB), NOSPLIT, $0-96
	MOVQ    out_base+0(FP), DI
	MOVQ    out_len+8(FP), CX
	MOVQ    t_base+24(FP), R8
	MOVQ    x_base+48(FP), SI
	MOVQ    v_base+72(FP), DX
	VMOVUPD ONE, Y14
	VMOVUPD TWO, Y13
	XORQ    AX, AX

loop:
	CMPQ    CX, $4
	JLT     last
	VMOVUPD (DX)(AX*1), Y0
	VMOVUPD (SI)(AX*1), Y10

body:
	// u = geluC·(v + ((0.044715·v)·v)·v); Y2 = |u|, Y3 = u's sign.
	VMULPD C044715, Y0, Y1
	VMULPD Y0, Y1, Y1
	VMULPD Y0, Y1, Y1
	VADDPD Y1, Y0, Y1
	VMULPD GELUC, Y1, Y1
	VANDPD ABS, Y1, Y2
	VANDPD SIGN, Y1, Y3

	// Y4 = Exp(2z): X5 = k, Y6 = float64(k), Y4 the reduced argument.
	VADDPD       Y2, Y2, Y4
	VMULPD       LOG2E, Y4, Y5
	VCVTPD2DQY   Y5, X5
	VCVTDQ2PD    X5, Y6
	VFNMADD231PD LN2U, Y6, Y4
	VFNMADD231PD LN2L, Y6, Y4
	VMULPD       SIXTEENTH, Y4, Y4
	VMOVUPD      E8, Y6
	VFMADD213PD  E7, Y4, Y6
	VFMADD213PD  E6, Y4, Y6
	VFMADD213PD  E5, Y4, Y6
	VFMADD213PD  E4, Y4, Y6
	VFMADD213PD  E3, Y4, Y6
	VFMADD213PD  HALF, Y4, Y6
	VFMADD213PD  Y14, Y4, Y6
	VMULPD       Y6, Y4, Y4
	VADDPD       Y13, Y4, Y6
	VMULPD       Y6, Y4, Y4
	VADDPD       Y13, Y4, Y6
	VMULPD       Y6, Y4, Y4
	VADDPD       Y13, Y4, Y6
	VMULPD       Y6, Y4, Y4
	VADDPD       Y13, Y4, Y6
	VFMADD213PD  Y14, Y6, Y4
	VPMOVSXDQ    X5, Y6
	VPADDQ       BIAS, Y6, Y6
	VPSLLQ       $52, Y6, Y6
	VMULPD       Y6, Y4, Y4

	// Y4 = 1 − 2/(Exp(2z)+1), negated for a negative u.
	VADDPD Y14, Y4, Y4
	VDIVPD Y4, Y13, Y4
	VSUBPD Y4, Y14, Y4
	VXORPD Y3, Y4, Y4

	// Y7 = u + ((u·s)·P(s))/Q(s), s = u·u.
	VMULPD Y1, Y1, Y7
	VMULPD P0, Y7, Y8
	VADDPD P1, Y8, Y8
	VMULPD Y7, Y8, Y8
	VADDPD P2, Y8, Y8
	VADDPD Q0, Y7, Y9
	VMULPD Y7, Y9, Y9
	VADDPD Q1, Y9, Y9
	VMULPD Y7, Y9, Y9
	VADDPD Q2, Y9, Y9
	VMULPD Y7, Y1, Y7
	VMULPD Y8, Y7, Y7
	VDIVPD Y9, Y7, Y7
	VADDPD Y7, Y1, Y7

	// Y7 = t: u where u = ±0, the Exp lane where z ≥ 0.625, ±1 where z >
	// 0.5·MAXLOG.
	VXORPD    Y8, Y8, Y8
	VCMPPD    $0x00, Y8, Y1, Y9
	VBLENDVPD Y9, Y1, Y7, Y7
	VCMPPD    $0x1d, C0625, Y2, Y9
	VBLENDVPD Y9, Y4, Y7, Y7
	VCMPPD    $0x1e, HALFMAXLOG, Y2, Y9
	VORPD     Y3, Y14, Y4
	VBLENDVPD Y9, Y4, Y7, Y7

	// Y8 = x + (0.5·v)·(1+t).
	VMULPD HALF, Y0, Y8
	VADDPD Y14, Y7, Y9
	VMULPD Y9, Y8, Y8
	VADDPD Y8, Y10, Y8

	CMPQ    CX, $4
	JLT     storelast
	VMOVUPD Y7, (R8)(AX*1)
	VMOVUPD Y8, (DI)(AX*1)
	ADDQ    $32, AX
	SUBQ    $4, CX
	JMP     loop

last:
	TESTQ      CX, CX
	JZ         done
	LASTMASK
	VMASKMOVPD (DX)(AX*1), Y15, Y0
	VMASKMOVPD (SI)(AX*1), Y15, Y10
	JMP        body

storelast:
	VMASKMOVPD Y7, Y15, (R8)(AX*1)
	VMASKMOVPD Y8, Y15, (DI)(AX*1)

done:
	VZEROUPPER
	RET

// func geluBackwardAVX(d, dy, v, t []float64)
//
// Laid out as geluForwardAVX: DI walks d, SI dy, DX v and R8 t. Per lane
// GELUGradFromTanh in the compiled Go's order, then the product with dy:
// dt = ((1 − t·t)·geluC)·(1 + ((3·0.044715)·v)·v); d = dy·(0.5·(1+t) +
// (0.5·v)·dt), every product rounded (no fused operation).
TEXT ·geluBackwardAVX(SB), NOSPLIT, $0-96
	MOVQ    d_base+0(FP), DI
	MOVQ    d_len+8(FP), CX
	MOVQ    dy_base+24(FP), SI
	MOVQ    v_base+48(FP), DX
	MOVQ    t_base+72(FP), R8
	VMOVUPD ONE, Y14
	XORQ    AX, AX

loop:
	CMPQ    CX, $4
	JLT     last
	VMOVUPD (DX)(AX*1), Y0
	VMOVUPD (R8)(AX*1), Y1
	VMOVUPD (SI)(AX*1), Y2

body:
	VMULPD Y1, Y1, Y3
	VSUBPD Y3, Y14, Y3
	VMULPD GELUC, Y3, Y3
	VMULPD C3, Y0, Y4
	VMULPD Y0, Y4, Y4
	VADDPD Y14, Y4, Y4
	VMULPD Y4, Y3, Y3
	VADDPD Y14, Y1, Y4
	VMULPD HALF, Y4, Y4
	VMULPD HALF, Y0, Y5
	VMULPD Y3, Y5, Y5
	VADDPD Y5, Y4, Y4
	VMULPD Y4, Y2, Y4

	CMPQ    CX, $4
	JLT     storelast
	VMOVUPD Y4, (DI)(AX*1)
	ADDQ    $32, AX
	SUBQ    $4, CX
	JMP     loop

last:
	TESTQ      CX, CX
	JZ         done
	LASTMASK
	VMASKMOVPD (DX)(AX*1), Y15, Y0
	VMASKMOVPD (R8)(AX*1), Y15, Y1
	VMASKMOVPD (SI)(AX*1), Y15, Y2
	JMP        body

storelast:
	VMASKMOVPD Y4, Y15, (DI)(AX*1)

done:
	VZEROUPPER
	RET
