//go:build amd64 && !race

#include "textflag.h"

// func cpuid1ECX() uint32
TEXT ·cpuid1ECX(SB), NOSPLIT, $0-4
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, ret+0(FP)
	RET

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET

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
