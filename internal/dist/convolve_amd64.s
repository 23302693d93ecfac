#include "textflag.h"

// func convolveAVX2(out, x, ypad []float64)
//
// Output-stationary direct convolution: for every k < len(out),
//
//	out[k] = x[0]·ypad[k+nx-1] + x[1]·ypad[k+nx-2] + … + x[nx-1]·ypad[k]
//
// summed left to right from +0, one rounded multiply and one rounded
// add per term (VMULPD then VADDPD, never a fused multiply-add), so
// each lane performs exactly the roundings of the scalar loop. Blocks
// of 16 outputs keep four YMM accumulators in registers while the rows
// stream past; the last 0–15 outputs run 4 and then 1 at a time in the
// same order. The caller guarantees len(x) >= 1 and
// len(ypad) >= len(out)+len(x)-1; every element of out is written.
TEXT ·convolveAVX2(SB), NOSPLIT, $0-72
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), R8
	MOVQ ypad_base+48(FP), DX

	// R9 is &ypad[k+nx-1], the row-0 operand of the current output k;
	// row i reads 8·i bytes below it. R12 is &x[nx], the row loop's end.
	LEAQ -8(DX)(R8*8), R9
	LEAQ (SI)(R8*8), R12

block16:
	CMPQ CX, $16
	JLT  block4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   SI, R10
	MOVQ   R9, R11

row16:
	VBROADCASTSD (R10), Y4
	VMULPD       (R11), Y4, Y5
	VADDPD       Y5, Y0, Y0
	VMULPD       32(R11), Y4, Y6
	VADDPD       Y6, Y1, Y1
	VMULPD       64(R11), Y4, Y7
	VADDPD       Y7, Y2, Y2
	VMULPD       96(R11), Y4, Y8
	VADDPD       Y8, Y3, Y3
	ADDQ         $8, R10
	SUBQ         $8, R11
	CMPQ         R10, R12
	JLT          row16

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, R9
	SUBQ    $16, CX
	JMP     block16

block4:
	CMPQ   CX, $4
	JLT    single
	VXORPD Y0, Y0, Y0
	MOVQ   SI, R10
	MOVQ   R9, R11

row4:
	VBROADCASTSD (R10), Y4
	VMULPD       (R11), Y4, Y5
	VADDPD       Y5, Y0, Y0
	ADDQ         $8, R10
	SUBQ         $8, R11
	CMPQ         R10, R12
	JLT          row4

	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, R9
	SUBQ    $4, CX
	JMP     block4

single:
	TESTQ  CX, CX
	JEQ    done
	VXORPD X0, X0, X0
	MOVQ   SI, R10
	MOVQ   R9, R11

row1:
	VMOVSD (R10), X4
	VMULSD (R11), X4, X5
	VADDSD X5, X0, X0
	ADDQ   $8, R10
	SUBQ   $8, R11
	CMPQ   R10, R12
	JLT    row1

	VMOVSD X0, (DI)
	ADDQ   $8, DI
	ADDQ   $8, R9
	DECQ   CX
	JMP    single

done:
	VZEROUPPER
	RET

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	MOVL   DX, edx+4(FP)
	RET
