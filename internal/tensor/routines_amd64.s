//go:build amd64 && !race

#include "textflag.h"

// func mulAdd4AVX(d []float64, a0, a1, a2, a3 float64, b []float64)
//
// DI walks d and SI, R8, R9, R10 the four rows of b, all by the byte
// offset AX. Y0–Y3 hold a0–a3 in every lane; Y4 is the accumulator of four
// d elements, Y5 the rounded product about to be added to it.
TEXT ·mulAdd4AVX(SB), NOSPLIT, $0-80
	MOVQ d_base+0(FP), DI
	MOVQ d_len+8(FP), CX
	MOVQ b_base+56(FP), SI
	VBROADCASTSD a0+24(FP), Y0
	VBROADCASTSD a1+32(FP), Y1
	VBROADCASTSD a2+40(FP), Y2
	VBROADCASTSD a3+48(FP), Y3
	LEAQ (SI)(CX*8), R8
	LEAQ (R8)(CX*8), R9
	LEAQ (R9)(CX*8), R10
	XORQ AX, AX
	MOVQ CX, BX
	SHRQ $2, BX
	JZ   tail

loop4:
	VMOVUPD (DI)(AX*1), Y4
	VMULPD  (SI)(AX*1), Y0, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  (R8)(AX*1), Y1, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  (R9)(AX*1), Y2, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  (R10)(AX*1), Y3, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD Y4, (DI)(AX*1)
	ADDQ    $32, AX
	DECQ    BX
	JNZ     loop4

tail:
	ANDQ $3, CX
	JZ   done

loop1:
	VMOVSD (DI)(AX*1), X4
	VMULSD (SI)(AX*1), X0, X5
	VADDSD X5, X4, X4
	VMULSD (R8)(AX*1), X1, X5
	VADDSD X5, X4, X4
	VMULSD (R9)(AX*1), X2, X5
	VADDSD X5, X4, X4
	VMULSD (R10)(AX*1), X3, X5
	VADDSD X5, X4, X4
	VMOVSD X4, (DI)(AX*1)
	ADDQ   $8, AX
	DECQ   CX
	JNZ    loop1

done:
	VZEROUPPER
	RET

// func addScaledAVX(dst, a []float64, s float64, b []float64)
//
// DI walks dst, SI a and DX b by the byte offset AX. Y0 holds s in every
// lane; per lane Y1 = s·b[j] rounded, then Y2 = a[j] + Y1.
TEXT ·addScaledAVX(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+56(FP), DX
	VBROADCASTSD s+48(FP), Y0
	XORQ AX, AX
	MOVQ CX, BX
	SHRQ $2, BX
	JZ   tail

loop4:
	VMULPD  (DX)(AX*1), Y0, Y1
	VMOVUPD (SI)(AX*1), Y2
	VADDPD  Y1, Y2, Y2
	VMOVUPD Y2, (DI)(AX*1)
	ADDQ    $32, AX
	DECQ    BX
	JNZ     loop4

tail:
	ANDQ $3, CX
	JZ   done

loop1:
	VMULSD (DX)(AX*1), X0, X1
	VMOVSD (SI)(AX*1), X2
	VADDSD X1, X2, X2
	VMOVSD X2, (DI)(AX*1)
	ADDQ   $8, AX
	DECQ   CX
	JNZ    loop1

done:
	VZEROUPPER
	RET

// func addAVX(d, s []float64)
TEXT ·addAVX(SB), NOSPLIT, $0-48
	MOVQ d_base+0(FP), DI
	MOVQ d_len+8(FP), CX
	MOVQ s_base+24(FP), SI
	XORQ AX, AX
	MOVQ CX, BX
	SHRQ $2, BX
	JZ   tail

loop4:
	VMOVUPD (DI)(AX*1), Y0
	VADDPD  (SI)(AX*1), Y0, Y0
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ    $32, AX
	DECQ    BX
	JNZ     loop4

tail:
	ANDQ $3, CX
	JZ   done

loop1:
	VMOVSD (DI)(AX*1), X0
	VADDSD (SI)(AX*1), X0, X0
	VMOVSD X0, (DI)(AX*1)
	ADDQ   $8, AX
	DECQ   CX
	JNZ    loop1

done:
	VZEROUPPER
	RET

// func scaleAVX(d []float64, s float64)
TEXT ·scaleAVX(SB), NOSPLIT, $0-32
	MOVQ d_base+0(FP), DI
	MOVQ d_len+8(FP), CX
	VBROADCASTSD s+24(FP), Y0
	XORQ AX, AX
	MOVQ CX, BX
	SHRQ $2, BX
	JZ   tail

loop4:
	VMOVUPD (DI)(AX*1), Y1
	VMULPD  Y0, Y1, Y1
	VMOVUPD Y1, (DI)(AX*1)
	ADDQ    $32, AX
	DECQ    BX
	JNZ     loop4

tail:
	ANDQ $3, CX
	JZ   done

loop1:
	VMOVSD (DI)(AX*1), X1
	VMULSD X0, X1, X1
	VMOVSD X1, (DI)(AX*1)
	ADDQ   $8, AX
	DECQ   CX
	JNZ    loop1

done:
	VZEROUPPER
	RET

// func skinnyRows4AVX(d []float64, w int, a []float64, rowStride, stride int, b []float64, skip bool)
//
// Four dst rows at a time, in a pass for each width and for skip set or
// clear. Y0–Y3 (X0–X3 for w = 2) hold the rows and Y8 (X8) the
// row of b of the current k step, which they share; Y4–Y7 take each row's
// broadcast a operand and then its rounded product with Y8. SI walks the
// a operands of the group's first row by stride·8 bytes (R8); the other
// rows' lie rowStride·8 (R11), twice and three times that (R12, R13)
// further on. R14 is the group's first a operand, R10 the start of b, CX
// the number of k steps, DX the steps left, BX the groups left and X9 +0.

// ADD adds to acc the a operand at addr, broadcast into t, times the row
// of b: a multiply, then a separate add.
#define ADD(BCAST, addr, t, b, acc) \
	BCAST  addr, t; \
	VMULPD b, t, t; \
	VADDPD t, acc, acc

// SKIPADD is ADD unless the operand is ±0: VUCOMISD sets ZF for an equal
// or unordered operand (tx is t's low lane), which branches to ZERO.
#define SKIPADD(BCAST, addr, t, tx, b, acc, z, m, n) \
	BCAST    addr, t;     \
	VUCOMISD X9, tx;      \
	JEQ      z;           \
m:	VMULPD   b, t, t;     \
	VADDPD   t, acc, acc; \
n:

// ZERO is SKIPADD's branch: a NaN (parity set) is added, a zero skipped.
#define ZERO(z, m, n) \
z:	JPS m; \
	JMP n

TEXT ·skinnyRows4AVX(SB), NOSPLIT, $0-97
	MOVQ    d_base+0(FP), DI
	MOVQ    d_len+8(FP), BX
	MOVQ    a_base+32(FP), R14
	MOVQ    rowStride+56(FP), R11
	SHLQ    $3, R11
	LEAQ    (R11)(R11*1), R12
	LEAQ    (R12)(R11*1), R13
	MOVQ    stride+64(FP), R8
	SHLQ    $3, R8
	MOVQ    b_base+72(FP), R10
	MOVQ    b_len+80(FP), CX
	VXORPD  X9, X9, X9
	MOVBQZX skip+96(FP), AX
	CMPQ    w+24(FP), $2
	JEQ     two
	SHRQ    $4, BX
	SHRQ    $2, CX
	TESTQ   AX, AX
	JNZ     s4

n4:
	TESTQ   BX, BX
	JZ      done
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	MOVQ    R14, SI
	MOVQ    R10, R9
	MOVQ    CX, DX
	TESTQ   DX, DX
	JZ      n4store

n4k:
	VMOVUPD (R9), Y8
	ADD(VBROADCASTSD, (SI), Y4, Y8, Y0)
	ADD(VBROADCASTSD, (SI)(R11*1), Y5, Y8, Y1)
	ADD(VBROADCASTSD, (SI)(R12*1), Y6, Y8, Y2)
	ADD(VBROADCASTSD, (SI)(R13*1), Y7, Y8, Y3)
	ADDQ    R8, SI
	ADDQ    $32, R9
	DECQ    DX
	JNZ     n4k

n4store:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	LEAQ    (R14)(R11*4), R14
	DECQ    BX
	JMP     n4

s4:
	TESTQ   BX, BX
	JZ      done
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	MOVQ    R14, SI
	MOVQ    R10, R9
	MOVQ    CX, DX
	TESTQ   DX, DX
	JZ      s4store

s4k:
	VMOVUPD (R9), Y8
	SKIPADD(VBROADCASTSD, (SI), Y4, X4, Y8, Y0, s4z0, s4m0, s4n0)
	SKIPADD(VBROADCASTSD, (SI)(R11*1), Y5, X5, Y8, Y1, s4z1, s4m1, s4n1)
	SKIPADD(VBROADCASTSD, (SI)(R12*1), Y6, X6, Y8, Y2, s4z2, s4m2, s4n2)
	SKIPADD(VBROADCASTSD, (SI)(R13*1), Y7, X7, Y8, Y3, s4z3, s4m3, s4n3)
	ADDQ    R8, SI
	ADDQ    $32, R9
	DECQ    DX
	JNZ     s4k

s4store:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	LEAQ    (R14)(R11*4), R14
	DECQ    BX
	JMP     s4

	ZERO(s4z0, s4m0, s4n0)
	ZERO(s4z1, s4m1, s4n1)
	ZERO(s4z2, s4m2, s4n2)
	ZERO(s4z3, s4m3, s4n3)

two:
	SHRQ    $3, BX
	SHRQ    $1, CX
	TESTQ   AX, AX
	JNZ     s2

n2:
	TESTQ   BX, BX
	JZ      done
	VMOVUPD (DI), X0
	VMOVUPD 16(DI), X1
	VMOVUPD 32(DI), X2
	VMOVUPD 48(DI), X3
	MOVQ    R14, SI
	MOVQ    R10, R9
	MOVQ    CX, DX
	TESTQ   DX, DX
	JZ      n2store

n2k:
	VMOVUPD (R9), X8
	ADD(VMOVDDUP, (SI), X4, X8, X0)
	ADD(VMOVDDUP, (SI)(R11*1), X5, X8, X1)
	ADD(VMOVDDUP, (SI)(R12*1), X6, X8, X2)
	ADD(VMOVDDUP, (SI)(R13*1), X7, X8, X3)
	ADDQ    R8, SI
	ADDQ    $16, R9
	DECQ    DX
	JNZ     n2k

n2store:
	VMOVUPD X0, (DI)
	VMOVUPD X1, 16(DI)
	VMOVUPD X2, 32(DI)
	VMOVUPD X3, 48(DI)
	ADDQ    $64, DI
	LEAQ    (R14)(R11*4), R14
	DECQ    BX
	JMP     n2

s2:
	TESTQ   BX, BX
	JZ      done
	VMOVUPD (DI), X0
	VMOVUPD 16(DI), X1
	VMOVUPD 32(DI), X2
	VMOVUPD 48(DI), X3
	MOVQ    R14, SI
	MOVQ    R10, R9
	MOVQ    CX, DX
	TESTQ   DX, DX
	JZ      s2store

s2k:
	VMOVUPD (R9), X8
	SKIPADD(VMOVDDUP, (SI), X4, X4, X8, X0, s2z0, s2m0, s2n0)
	SKIPADD(VMOVDDUP, (SI)(R11*1), X5, X5, X8, X1, s2z1, s2m1, s2n1)
	SKIPADD(VMOVDDUP, (SI)(R12*1), X6, X6, X8, X2, s2z2, s2m2, s2n2)
	SKIPADD(VMOVDDUP, (SI)(R13*1), X7, X7, X8, X3, s2z3, s2m3, s2n3)
	ADDQ    R8, SI
	ADDQ    $16, R9
	DECQ    DX
	JNZ     s2k

s2store:
	VMOVUPD X0, (DI)
	VMOVUPD X1, 16(DI)
	VMOVUPD X2, 32(DI)
	VMOVUPD X3, 48(DI)
	ADDQ    $64, DI
	LEAQ    (R14)(R11*4), R14
	DECQ    BX
	JMP     s2

	ZERO(s2z0, s2m0, s2n0)
	ZERO(s2z1, s2m1, s2n1)
	ZERO(s2z2, s2m2, s2n2)
	ZERO(s2z3, s2m3, s2n3)

done:
	VZEROUPPER
	RET


// func sgdStepAVX(p, g, vel []float64, s, mu, lo, hi float64)
//
// DI walks p, SI g and DX vel by the byte offset AX. Y0–Y3 hold s, mu, lo
// and hi in every lane. Per lane: Y4 = g[j], clamped by VMINPD (hi first)
// and VMAXPD (lo first); with momentum Y5 = vel[j]·mu rounded, Y4 = Y5 +
// Y4, stored into vel[j]; then Y5 = s·Y4 rounded and p[j] = p[j] + Y5.
TEXT ·sgdStepAVX(SB), NOSPLIT, $0-104
	MOVQ p_base+0(FP), DI
	MOVQ p_len+8(FP), CX
	MOVQ g_base+24(FP), SI
	MOVQ vel_base+48(FP), DX
	MOVQ vel_len+56(FP), R8
	VBROADCASTSD s+72(FP), Y0
	VBROADCASTSD mu+80(FP), Y1
	VBROADCASTSD lo+88(FP), Y2
	VBROADCASTSD hi+96(FP), Y3
	XORQ AX, AX
	MOVQ CX, BX
	SHRQ $2, BX
	ANDQ $3, CX
	TESTQ R8, R8
	JZ   plain
	TESTQ BX, BX
	JZ   mtail

mloop4:
	VMOVUPD (SI)(AX*1), Y4
	VMINPD  Y4, Y3, Y4
	VMAXPD  Y4, Y2, Y4
	VMOVUPD (DX)(AX*1), Y5
	VMULPD  Y1, Y5, Y5
	VADDPD  Y4, Y5, Y4
	VMOVUPD Y4, (DX)(AX*1)
	VMULPD  Y4, Y0, Y5
	VMOVUPD (DI)(AX*1), Y6
	VADDPD  Y5, Y6, Y6
	VMOVUPD Y6, (DI)(AX*1)
	ADDQ    $32, AX
	DECQ    BX
	JNZ     mloop4

mtail:
	TESTQ CX, CX
	JZ    done

mloop1:
	VMOVSD (SI)(AX*1), X4
	VMINSD X4, X3, X4
	VMAXSD X4, X2, X4
	VMOVSD (DX)(AX*1), X5
	VMULSD X1, X5, X5
	VADDSD X4, X5, X4
	VMOVSD X4, (DX)(AX*1)
	VMULSD X4, X0, X5
	VMOVSD (DI)(AX*1), X6
	VADDSD X5, X6, X6
	VMOVSD X6, (DI)(AX*1)
	ADDQ   $8, AX
	DECQ   CX
	JNZ    mloop1
	JMP    done

plain:
	TESTQ BX, BX
	JZ    ptail

ploop4:
	VMOVUPD (SI)(AX*1), Y4
	VMINPD  Y4, Y3, Y4
	VMAXPD  Y4, Y2, Y4
	VMULPD  Y4, Y0, Y5
	VMOVUPD (DI)(AX*1), Y6
	VADDPD  Y5, Y6, Y6
	VMOVUPD Y6, (DI)(AX*1)
	ADDQ    $32, AX
	DECQ    BX
	JNZ     ploop4

ptail:
	TESTQ CX, CX
	JZ    done

ploop1:
	VMOVSD (SI)(AX*1), X4
	VMINSD X4, X3, X4
	VMAXSD X4, X2, X4
	VMULSD X4, X0, X5
	VMOVSD (DI)(AX*1), X6
	VADDSD X5, X6, X6
	VMOVSD X6, (DI)(AX*1)
	ADDQ   $8, AX
	DECQ   CX
	JNZ    ploop1

done:
	VZEROUPPER
	RET
