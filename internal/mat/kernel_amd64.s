//go:build !noasm

// AVX2/FMA3 kernels for the mat package. Layouts and contracts are
// documented on the Go declarations in asm_amd64.go, next to the cpuid
// check (hasAsm) that gates them.
//
// Register conventions shared by the kernels below:
//   DI  dst base pointer
//   SI  first operand-row pointer (b, r)
//   R9-R11  operand rows 1-3 (base + 1..3 strides)
//   AX  shared left operand (a coefficients, x vector)
//   CX  element count n / k
//   BX  running element index
//   DX  unroll bound
// Accumulators stay in Y0-Y7; broadcast coefficients in Y12-Y15.
// Every kernel ends with VZEROUPPER so the caller's SSE code pays no
// AVX-SSE transition penalty.

#include "textflag.h"

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func daxpy4(dst, b *float64, ldb int, a *[4]float64, n int)
TEXT ·daxpy4(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ ldb+16(FP), R8
	SHLQ $3, R8
	MOVQ a+24(FP), AX
	MOVQ n+32(FP), CX
	LEAQ (SI)(R8*1), R9
	LEAQ (SI)(R8*2), R10
	LEAQ (R9)(R8*2), R11
	VBROADCASTSD (AX), Y12
	VBROADCASTSD 8(AX), Y13
	VBROADCASTSD 16(AX), Y14
	VBROADCASTSD 24(AX), Y15
	XORQ BX, BX
	MOVQ CX, DX
	ANDQ $-8, DX
	JZ   axtail4

axloop8:
	VMOVUPD     (DI)(BX*8), Y0
	VMOVUPD     32(DI)(BX*8), Y1
	VFMADD231PD (SI)(BX*8), Y12, Y0
	VFMADD231PD 32(SI)(BX*8), Y12, Y1
	VFMADD231PD (R9)(BX*8), Y13, Y0
	VFMADD231PD 32(R9)(BX*8), Y13, Y1
	VFMADD231PD (R10)(BX*8), Y14, Y0
	VFMADD231PD 32(R10)(BX*8), Y14, Y1
	VFMADD231PD (R11)(BX*8), Y15, Y0
	VFMADD231PD 32(R11)(BX*8), Y15, Y1
	VMOVUPD     Y0, (DI)(BX*8)
	VMOVUPD     Y1, 32(DI)(BX*8)
	ADDQ $8, BX
	CMPQ BX, DX
	JLT  axloop8

axtail4:
	MOVQ CX, DX
	ANDQ $-4, DX
	CMPQ BX, DX
	JGE  axtail1
	VMOVUPD     (DI)(BX*8), Y0
	VFMADD231PD (SI)(BX*8), Y12, Y0
	VFMADD231PD (R9)(BX*8), Y13, Y0
	VFMADD231PD (R10)(BX*8), Y14, Y0
	VFMADD231PD (R11)(BX*8), Y15, Y0
	VMOVUPD     Y0, (DI)(BX*8)
	ADDQ $4, BX

axtail1:
	CMPQ BX, CX
	JGE  axdone

axloop1:
	VMOVSD      (DI)(BX*8), X0
	VMOVSD      (SI)(BX*8), X1
	VFMADD231SD X12, X1, X0
	VMOVSD      (R9)(BX*8), X1
	VFMADD231SD X13, X1, X0
	VMOVSD      (R10)(BX*8), X1
	VFMADD231SD X14, X1, X0
	VMOVSD      (R11)(BX*8), X1
	VFMADD231SD X15, X1, X0
	VMOVSD      X0, (DI)(BX*8)
	INCQ BX
	CMPQ BX, CX
	JLT  axloop1

axdone:
	VZEROUPPER
	RET

// func daxpy1(dst, b *float64, a float64, n int)
TEXT ·daxpy1(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         b+8(FP), SI
	VBROADCASTSD a+16(FP), Y12
	MOVQ         n+24(FP), CX
	XORQ         BX, BX
	MOVQ         CX, DX
	ANDQ         $-8, DX
	JZ           ax1tail4

ax1loop8:
	VMOVUPD     (DI)(BX*8), Y0
	VMOVUPD     32(DI)(BX*8), Y1
	VFMADD231PD (SI)(BX*8), Y12, Y0
	VFMADD231PD 32(SI)(BX*8), Y12, Y1
	VMOVUPD     Y0, (DI)(BX*8)
	VMOVUPD     Y1, 32(DI)(BX*8)
	ADDQ $8, BX
	CMPQ BX, DX
	JLT  ax1loop8

ax1tail4:
	MOVQ CX, DX
	ANDQ $-4, DX
	CMPQ BX, DX
	JGE  ax1tail1
	VMOVUPD     (DI)(BX*8), Y0
	VFMADD231PD (SI)(BX*8), Y12, Y0
	VMOVUPD     Y0, (DI)(BX*8)
	ADDQ $4, BX

ax1tail1:
	CMPQ BX, CX
	JGE  ax1done

ax1loop1:
	VMOVSD      (DI)(BX*8), X0
	VMOVSD      (SI)(BX*8), X1
	VFMADD231SD X12, X1, X0
	VMOVSD      X0, (DI)(BX*8)
	INCQ BX
	CMPQ BX, CX
	JLT  ax1loop1

ax1done:
	VZEROUPPER
	RET

// func ddot4(x, r *float64, ldr, n int) (s0, s1, s2, s3 float64)
TEXT ·ddot4(SB), NOSPLIT, $0-64
	MOVQ x+0(FP), AX
	MOVQ r+8(FP), SI
	MOVQ ldr+16(FP), R8
	SHLQ $3, R8
	MOVQ n+24(FP), CX
	LEAQ (SI)(R8*1), R9
	LEAQ (SI)(R8*2), R10
	LEAQ (R9)(R8*2), R11
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	XORQ BX, BX
	MOVQ CX, DX
	ANDQ $-8, DX
	JZ   dottail4

dotloop8:
	VMOVUPD     (AX)(BX*8), Y8
	VFMADD231PD (SI)(BX*8), Y8, Y0
	VFMADD231PD (R9)(BX*8), Y8, Y1
	VFMADD231PD (R10)(BX*8), Y8, Y2
	VFMADD231PD (R11)(BX*8), Y8, Y3
	VMOVUPD     32(AX)(BX*8), Y9
	VFMADD231PD 32(SI)(BX*8), Y9, Y4
	VFMADD231PD 32(R9)(BX*8), Y9, Y5
	VFMADD231PD 32(R10)(BX*8), Y9, Y6
	VFMADD231PD 32(R11)(BX*8), Y9, Y7
	ADDQ $8, BX
	CMPQ BX, DX
	JLT  dotloop8
	VADDPD Y4, Y0, Y0
	VADDPD Y5, Y1, Y1
	VADDPD Y6, Y2, Y2
	VADDPD Y7, Y3, Y3

dottail4:
	MOVQ CX, DX
	ANDQ $-4, DX
	CMPQ BX, DX
	JGE  dotreduce
	VMOVUPD     (AX)(BX*8), Y8
	VFMADD231PD (SI)(BX*8), Y8, Y0
	VFMADD231PD (R9)(BX*8), Y8, Y1
	VFMADD231PD (R10)(BX*8), Y8, Y2
	VFMADD231PD (R11)(BX*8), Y8, Y3
	ADDQ $4, BX

dotreduce:
	VEXTRACTF128 $1, Y0, X8
	VADDPD       X8, X0, X0
	VHADDPD      X0, X0, X0
	VEXTRACTF128 $1, Y1, X8
	VADDPD       X8, X1, X1
	VHADDPD      X1, X1, X1
	VEXTRACTF128 $1, Y2, X8
	VADDPD       X8, X2, X2
	VHADDPD      X2, X2, X2
	VEXTRACTF128 $1, Y3, X8
	VADDPD       X8, X3, X3
	VHADDPD      X3, X3, X3
	CMPQ         BX, CX
	JGE          dotstore

dotloop1:
	VMOVSD      (AX)(BX*8), X8
	VMOVSD      (SI)(BX*8), X9
	VFMADD231SD X9, X8, X0
	VMOVSD      (R9)(BX*8), X9
	VFMADD231SD X9, X8, X1
	VMOVSD      (R10)(BX*8), X9
	VFMADD231SD X9, X8, X2
	VMOVSD      (R11)(BX*8), X9
	VFMADD231SD X9, X8, X3
	INCQ BX
	CMPQ BX, CX
	JLT  dotloop1

dotstore:
	VMOVSD X0, s0+32(FP)
	VMOVSD X1, s1+40(FP)
	VMOVSD X2, s2+48(FP)
	VMOVSD X3, s3+56(FP)
	VZEROUPPER
	RET

// func saxpy4(dst, b *float32, ldb int, a *[4]float32, n int)
TEXT ·saxpy4(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ ldb+16(FP), R8
	SHLQ $2, R8
	MOVQ a+24(FP), AX
	MOVQ n+32(FP), CX
	LEAQ (SI)(R8*1), R9
	LEAQ (SI)(R8*2), R10
	LEAQ (R9)(R8*2), R11
	VBROADCASTSS (AX), Y12
	VBROADCASTSS 4(AX), Y13
	VBROADCASTSS 8(AX), Y14
	VBROADCASTSS 12(AX), Y15
	XORQ BX, BX
	MOVQ CX, DX
	ANDQ $-16, DX
	JZ   saxtail8

saxloop16:
	VMOVUPS     (DI)(BX*4), Y0
	VMOVUPS     32(DI)(BX*4), Y1
	VFMADD231PS (SI)(BX*4), Y12, Y0
	VFMADD231PS 32(SI)(BX*4), Y12, Y1
	VFMADD231PS (R9)(BX*4), Y13, Y0
	VFMADD231PS 32(R9)(BX*4), Y13, Y1
	VFMADD231PS (R10)(BX*4), Y14, Y0
	VFMADD231PS 32(R10)(BX*4), Y14, Y1
	VFMADD231PS (R11)(BX*4), Y15, Y0
	VFMADD231PS 32(R11)(BX*4), Y15, Y1
	VMOVUPS     Y0, (DI)(BX*4)
	VMOVUPS     Y1, 32(DI)(BX*4)
	ADDQ $16, BX
	CMPQ BX, DX
	JLT  saxloop16

saxtail8:
	MOVQ CX, DX
	ANDQ $-8, DX
	CMPQ BX, DX
	JGE  saxtail1
	VMOVUPS     (DI)(BX*4), Y0
	VFMADD231PS (SI)(BX*4), Y12, Y0
	VFMADD231PS (R9)(BX*4), Y13, Y0
	VFMADD231PS (R10)(BX*4), Y14, Y0
	VFMADD231PS (R11)(BX*4), Y15, Y0
	VMOVUPS     Y0, (DI)(BX*4)
	ADDQ $8, BX

saxtail1:
	CMPQ BX, CX
	JGE  saxdone

saxloop1:
	VMOVSS      (DI)(BX*4), X0
	VMOVSS      (SI)(BX*4), X1
	VFMADD231SS X12, X1, X0
	VMOVSS      (R9)(BX*4), X1
	VFMADD231SS X13, X1, X0
	VMOVSS      (R10)(BX*4), X1
	VFMADD231SS X14, X1, X0
	VMOVSS      (R11)(BX*4), X1
	VFMADD231SS X15, X1, X0
	VMOVSS      X0, (DI)(BX*4)
	INCQ BX
	CMPQ BX, CX
	JLT  saxloop1

saxdone:
	VZEROUPPER
	RET

// func saxpy1(dst, b *float32, a float32, n int)
TEXT ·saxpy1(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         b+8(FP), SI
	VBROADCASTSS a+16(FP), Y12
	MOVQ         n+24(FP), CX
	XORQ         BX, BX
	MOVQ         CX, DX
	ANDQ         $-16, DX
	JZ           sax1tail8

sax1loop16:
	VMOVUPS     (DI)(BX*4), Y0
	VMOVUPS     32(DI)(BX*4), Y1
	VFMADD231PS (SI)(BX*4), Y12, Y0
	VFMADD231PS 32(SI)(BX*4), Y12, Y1
	VMOVUPS     Y0, (DI)(BX*4)
	VMOVUPS     Y1, 32(DI)(BX*4)
	ADDQ $16, BX
	CMPQ BX, DX
	JLT  sax1loop16

sax1tail8:
	MOVQ CX, DX
	ANDQ $-8, DX
	CMPQ BX, DX
	JGE  sax1tail1
	VMOVUPS     (DI)(BX*4), Y0
	VFMADD231PS (SI)(BX*4), Y12, Y0
	VMOVUPS     Y0, (DI)(BX*4)
	ADDQ $8, BX

sax1tail1:
	CMPQ BX, CX
	JGE  sax1done

sax1loop1:
	VMOVSS      (DI)(BX*4), X0
	VMOVSS      (SI)(BX*4), X1
	VFMADD231SS X12, X1, X0
	VMOVSS      X0, (DI)(BX*4)
	INCQ BX
	CMPQ BX, CX
	JLT  sax1loop1

sax1done:
	VZEROUPPER
	RET

// func sdot4(x, r *float32, ldr, n int) (s0, s1, s2, s3 float32)
TEXT ·sdot4(SB), NOSPLIT, $0-48
	MOVQ x+0(FP), AX
	MOVQ r+8(FP), SI
	MOVQ ldr+16(FP), R8
	SHLQ $2, R8
	MOVQ n+24(FP), CX
	LEAQ (SI)(R8*1), R9
	LEAQ (SI)(R8*2), R10
	LEAQ (R9)(R8*2), R11
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	XORQ BX, BX
	MOVQ CX, DX
	ANDQ $-16, DX
	JZ   sdottail8

sdotloop16:
	VMOVUPS     (AX)(BX*4), Y8
	VFMADD231PS (SI)(BX*4), Y8, Y0
	VFMADD231PS (R9)(BX*4), Y8, Y1
	VFMADD231PS (R10)(BX*4), Y8, Y2
	VFMADD231PS (R11)(BX*4), Y8, Y3
	VMOVUPS     32(AX)(BX*4), Y9
	VFMADD231PS 32(SI)(BX*4), Y9, Y4
	VFMADD231PS 32(R9)(BX*4), Y9, Y5
	VFMADD231PS 32(R10)(BX*4), Y9, Y6
	VFMADD231PS 32(R11)(BX*4), Y9, Y7
	ADDQ $16, BX
	CMPQ BX, DX
	JLT  sdotloop16
	VADDPS Y4, Y0, Y0
	VADDPS Y5, Y1, Y1
	VADDPS Y6, Y2, Y2
	VADDPS Y7, Y3, Y3

sdottail8:
	MOVQ CX, DX
	ANDQ $-8, DX
	CMPQ BX, DX
	JGE  sdotreduce
	VMOVUPS     (AX)(BX*4), Y8
	VFMADD231PS (SI)(BX*4), Y8, Y0
	VFMADD231PS (R9)(BX*4), Y8, Y1
	VFMADD231PS (R10)(BX*4), Y8, Y2
	VFMADD231PS (R11)(BX*4), Y8, Y3
	ADDQ $8, BX

sdotreduce:
	VEXTRACTF128 $1, Y0, X8
	VADDPS       X8, X0, X0
	VHADDPS      X0, X0, X0
	VHADDPS      X0, X0, X0
	VEXTRACTF128 $1, Y1, X8
	VADDPS       X8, X1, X1
	VHADDPS      X1, X1, X1
	VHADDPS      X1, X1, X1
	VEXTRACTF128 $1, Y2, X8
	VADDPS       X8, X2, X2
	VHADDPS      X2, X2, X2
	VHADDPS      X2, X2, X2
	VEXTRACTF128 $1, Y3, X8
	VADDPS       X8, X3, X3
	VHADDPS      X3, X3, X3
	VHADDPS      X3, X3, X3
	CMPQ         BX, CX
	JGE          sdotstore

sdotloop1:
	VMOVSS      (AX)(BX*4), X8
	VMOVSS      (SI)(BX*4), X9
	VFMADD231SS X9, X8, X0
	VMOVSS      (R9)(BX*4), X9
	VFMADD231SS X9, X8, X1
	VMOVSS      (R10)(BX*4), X9
	VFMADD231SS X9, X8, X2
	VMOVSS      (R11)(BX*4), X9
	VFMADD231SS X9, X8, X3
	INCQ BX
	CMPQ BX, CX
	JLT  sdotloop1

sdotstore:
	VMOVSS X0, s0+32(FP)
	VMOVSS X1, s1+36(FP)
	VMOVSS X2, s2+40(FP)
	VMOVSS X3, s3+44(FP)
	VZEROUPPER
	RET

// func dgemmRows4x8(dst *float64, ldd int, a *float64, lda int, b *float64, ldb int, k int)
//
// Strided-B row kernel for skinny products: four dst rows times an
// 8-column strip of B stay in Y0-Y7 across the whole k loop, so one
// call per 4 output rows amortizes call overhead over k*32 FLOPs —
// the shape where packing and per-k-step kernels both lose.
TEXT ·dgemmRows4x8(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ ldd+8(FP), R8
	MOVQ a+16(FP), SI
	MOVQ lda+24(FP), R9
	MOVQ b+32(FP), BX
	MOVQ ldb+40(FP), R10
	MOVQ k+48(FP), CX
	SHLQ $3, R8
	SHLQ $3, R9
	SHLQ $3, R10
	LEAQ (SI)(R9*1), R12
	LEAQ (SI)(R9*2), R13
	LEAQ (R12)(R9*2), R14
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	XORQ AX, AX

dr48loop:
	VMOVUPD      (BX), Y8
	VMOVUPD      32(BX), Y9
	VBROADCASTSD (SI)(AX*8), Y10
	VFMADD231PD  Y10, Y8, Y0
	VFMADD231PD  Y10, Y9, Y1
	VBROADCASTSD (R12)(AX*8), Y11
	VFMADD231PD  Y11, Y8, Y2
	VFMADD231PD  Y11, Y9, Y3
	VBROADCASTSD (R13)(AX*8), Y10
	VFMADD231PD  Y10, Y8, Y4
	VFMADD231PD  Y10, Y9, Y5
	VBROADCASTSD (R14)(AX*8), Y11
	VFMADD231PD  Y11, Y8, Y6
	VFMADD231PD  Y11, Y9, Y7
	ADDQ R10, BX
	INCQ AX
	CMPQ AX, CX
	JLT  dr48loop

	VMOVUPD (DI), Y8
	VMOVUPD 32(DI), Y9
	VADDPD  Y8, Y0, Y0
	VADDPD  Y9, Y1, Y1
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    R8, DI
	VMOVUPD (DI), Y8
	VMOVUPD 32(DI), Y9
	VADDPD  Y8, Y2, Y2
	VADDPD  Y9, Y3, Y3
	VMOVUPD Y2, (DI)
	VMOVUPD Y3, 32(DI)
	ADDQ    R8, DI
	VMOVUPD (DI), Y8
	VMOVUPD 32(DI), Y9
	VADDPD  Y8, Y4, Y4
	VADDPD  Y9, Y5, Y5
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, 32(DI)
	ADDQ    R8, DI
	VMOVUPD (DI), Y8
	VMOVUPD 32(DI), Y9
	VADDPD  Y8, Y6, Y6
	VADDPD  Y9, Y7, Y7
	VMOVUPD Y6, (DI)
	VMOVUPD Y7, 32(DI)
	VZEROUPPER
	RET

// func dgemmRows4x4(dst *float64, ldd int, a *float64, lda int, b *float64, ldb int, k int)
//
// 4-column variant of dgemmRows4x8: one ymm accumulator per dst row.
TEXT ·dgemmRows4x4(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ ldd+8(FP), R8
	MOVQ a+16(FP), SI
	MOVQ lda+24(FP), R9
	MOVQ b+32(FP), BX
	MOVQ ldb+40(FP), R10
	MOVQ k+48(FP), CX
	SHLQ $3, R8
	SHLQ $3, R9
	SHLQ $3, R10
	LEAQ (SI)(R9*1), R12
	LEAQ (SI)(R9*2), R13
	LEAQ (R12)(R9*2), R14
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ AX, AX

dr44loop:
	VMOVUPD      (BX), Y4
	VBROADCASTSD (SI)(AX*8), Y5
	VFMADD231PD  Y5, Y4, Y0
	VBROADCASTSD (R12)(AX*8), Y6
	VFMADD231PD  Y6, Y4, Y1
	VBROADCASTSD (R13)(AX*8), Y5
	VFMADD231PD  Y5, Y4, Y2
	VBROADCASTSD (R14)(AX*8), Y6
	VFMADD231PD  Y6, Y4, Y3
	ADDQ R10, BX
	INCQ AX
	CMPQ AX, CX
	JLT  dr44loop

	VMOVUPD (DI), Y4
	VADDPD  Y4, Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    R8, DI
	VMOVUPD (DI), Y4
	VADDPD  Y4, Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ    R8, DI
	VMOVUPD (DI), Y4
	VADDPD  Y4, Y2, Y2
	VMOVUPD Y2, (DI)
	ADDQ    R8, DI
	VMOVUPD (DI), Y4
	VADDPD  Y4, Y3, Y3
	VMOVUPD Y3, (DI)
	VZEROUPPER
	RET

// func sgemmRows4x8(dst *float32, ldd int, a *float32, lda int, b *float32, ldb int, k int)
//
// Float32 strided-B row kernel: 4 dst rows x 8 columns in Y0-Y3 for
// the whole k loop. This is the serving-shape kernel — the Bellamy
// MLP layers are 4..16 columns wide, far too skinny for the packed
// path and too narrow to amortize per-k-step kernel calls.
TEXT ·sgemmRows4x8(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ ldd+8(FP), R8
	MOVQ a+16(FP), SI
	MOVQ lda+24(FP), R9
	MOVQ b+32(FP), BX
	MOVQ ldb+40(FP), R10
	MOVQ k+48(FP), CX
	SHLQ $2, R8
	SHLQ $2, R9
	SHLQ $2, R10
	LEAQ (SI)(R9*1), R12
	LEAQ (SI)(R9*2), R13
	LEAQ (R12)(R9*2), R14
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	XORQ AX, AX

sr48loop:
	VMOVUPS      (BX), Y4
	VBROADCASTSS (SI)(AX*4), Y5
	VFMADD231PS  Y5, Y4, Y0
	VBROADCASTSS (R12)(AX*4), Y6
	VFMADD231PS  Y6, Y4, Y1
	VBROADCASTSS (R13)(AX*4), Y5
	VFMADD231PS  Y5, Y4, Y2
	VBROADCASTSS (R14)(AX*4), Y6
	VFMADD231PS  Y6, Y4, Y3
	ADDQ R10, BX
	INCQ AX
	CMPQ AX, CX
	JLT  sr48loop

	VMOVUPS (DI), Y4
	VADDPS  Y4, Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    R8, DI
	VMOVUPS (DI), Y4
	VADDPS  Y4, Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ    R8, DI
	VMOVUPS (DI), Y4
	VADDPS  Y4, Y2, Y2
	VMOVUPS Y2, (DI)
	ADDQ    R8, DI
	VMOVUPS (DI), Y4
	VADDPS  Y4, Y3, Y3
	VMOVUPS Y3, (DI)
	VZEROUPPER
	RET

// func sgemmRows4x4(dst *float32, ldd int, a *float32, lda int, b *float32, ldb int, k int)
//
// 4-column xmm variant of sgemmRows4x8.
TEXT ·sgemmRows4x4(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ ldd+8(FP), R8
	MOVQ a+16(FP), SI
	MOVQ lda+24(FP), R9
	MOVQ b+32(FP), BX
	MOVQ ldb+40(FP), R10
	MOVQ k+48(FP), CX
	SHLQ $2, R8
	SHLQ $2, R9
	SHLQ $2, R10
	LEAQ (SI)(R9*1), R12
	LEAQ (SI)(R9*2), R13
	LEAQ (R12)(R9*2), R14
	VXORPS X0, X0, X0
	VXORPS X1, X1, X1
	VXORPS X2, X2, X2
	VXORPS X3, X3, X3
	XORQ AX, AX

sr44loop:
	VMOVUPS      (BX), X4
	VBROADCASTSS (SI)(AX*4), X5
	VFMADD231PS  X5, X4, X0
	VBROADCASTSS (R12)(AX*4), X6
	VFMADD231PS  X6, X4, X1
	VBROADCASTSS (R13)(AX*4), X5
	VFMADD231PS  X5, X4, X2
	VBROADCASTSS (R14)(AX*4), X6
	VFMADD231PS  X6, X4, X3
	ADDQ R10, BX
	INCQ AX
	CMPQ AX, CX
	JLT  sr44loop

	VMOVUPS (DI), X4
	VADDPS  X4, X0, X0
	VMOVUPS X0, (DI)
	ADDQ    R8, DI
	VMOVUPS (DI), X4
	VADDPS  X4, X1, X1
	VMOVUPS X1, (DI)
	ADDQ    R8, DI
	VMOVUPS (DI), X4
	VADDPS  X4, X2, X2
	VMOVUPS X2, (DI)
	ADDQ    R8, DI
	VMOVUPS (DI), X4
	VADDPS  X4, X3, X3
	VMOVUPS X3, (DI)
	VZEROUPPER
	RET

// Cephes expf constants for the vectorized SELU kernel (see nn.exp32
// for the scalar twin and the error analysis).
DATA expc<>+0(SB)/4, $0x3FB8AA3B  // log2(e)
DATA expc<>+4(SB)/4, $0x3F000000  // 0.5
DATA expc<>+8(SB)/4, $0x3F318000  // ln2 high = 0.693359375
DATA expc<>+12(SB)/4, $0xB95E8083 // ln2 low  = -2.12194440e-4
DATA expc<>+16(SB)/4, $0x39506967 // p0 = 1.9875691500e-4
DATA expc<>+20(SB)/4, $0x3AB743CE // p1 = 1.3981999507e-3
DATA expc<>+24(SB)/4, $0x3C088908 // p2 = 8.3334519073e-3
DATA expc<>+28(SB)/4, $0x3D2AA9C1 // p3 = 4.1665795894e-2
DATA expc<>+32(SB)/4, $0x3E2AAAAA // p4 = 1.6666665459e-1
DATA expc<>+36(SB)/4, $0x3F000000 // p5 = 5.0000001201e-1
DATA expc<>+40(SB)/4, $0x3F800000 // 1.0
DATA expc<>+44(SB)/4, $0xC2AEAC50 // exp underflow clamp = -87.33655
GLOBL expc<>(SB), RODATA|NOPTR, $48

// func vselu32(v *float32, n int, lambda, lambdaAlpha float32)
//
// Vectorized SELU over a contiguous float32 slice: 8 lanes per step of
// the Cephes expf polynomial (range-reduce, degree-5 Horner, exponent
// assembly via integer bits), then a sign-bit blend between the linear
// positive branch and the exponential negative branch. n must be a
// positive multiple of 8; the Go wrapper rounds the tail through a
// stack buffer.
TEXT ·vselu32(SB), NOSPLIT, $0-24
	MOVQ         v+0(FP), DI
	MOVQ         n+8(FP), CX
	VBROADCASTSS lambda+16(FP), Y8
	VBROADCASTSS lambdaAlpha+20(FP), Y9
	VBROADCASTSS expc<>+0(SB), Y10
	VBROADCASTSS expc<>+4(SB), Y11
	VBROADCASTSS expc<>+8(SB), Y12
	VBROADCASTSS expc<>+12(SB), Y13
	VBROADCASTSS expc<>+40(SB), Y14
	VBROADCASTSS expc<>+44(SB), Y15
	XORQ         BX, BX

vselloop:
	VMOVUPS (DI)(BX*4), Y0

	// Positive branch: lambda*x.
	VMULPS Y8, Y0, Y1

	// t = max(min(x, 0), clamp): the exp argument, clamped so the
	// exponent bit assembly below cannot under- or overflow.
	VXORPS Y2, Y2, Y2
	VMINPS Y0, Y2, Y2
	VMAXPS Y15, Y2, Y2

	// nq = floor(t*log2e + 0.5); r = t - nq*ln2 (two-part ln2).
	VMOVAPS      Y11, Y3
	VFMADD231PS  Y10, Y2, Y3
	VROUNDPS     $1, Y3, Y3
	VFNMADD231PS Y12, Y3, Y2
	VFNMADD231PS Y13, Y3, Y2

	// Degree-5 Horner for e^r, then y = p*r^2 + r + 1.
	VBROADCASTSS expc<>+16(SB), Y4
	VBROADCASTSS expc<>+20(SB), Y5
	VFMADD213PS  Y5, Y2, Y4
	VBROADCASTSS expc<>+24(SB), Y5
	VFMADD213PS  Y5, Y2, Y4
	VBROADCASTSS expc<>+28(SB), Y5
	VFMADD213PS  Y5, Y2, Y4
	VBROADCASTSS expc<>+32(SB), Y5
	VFMADD213PS  Y5, Y2, Y4
	VBROADCASTSS expc<>+36(SB), Y5
	VFMADD213PS  Y5, Y2, Y4
	VMULPS       Y2, Y2, Y5
	VFMADD213PS  Y2, Y5, Y4
	VADDPS       Y14, Y4, Y4

	// Scale by 2^nq: bits(2^nq) = (nq << 23) + bits(1.0).
	VCVTPS2DQ Y3, Y3
	VPSLLD    $23, Y3, Y3
	VPADDD    Y14, Y3, Y3
	VMULPS    Y3, Y4, Y4

	// Negative branch: lambdaAlpha*(e^t - 1).
	VSUBPS Y14, Y4, Y4
	VMULPS Y9, Y4, Y4

	// Lanes with the sign bit of x set take the negative branch.
	VBLENDVPS Y0, Y4, Y1, Y1
	VMOVUPS   Y1, (DI)(BX*4)
	ADDQ      $8, BX
	CMPQ      BX, CX
	JLT       vselloop

	VZEROUPPER
	RET

// Constants of the float64 activation kernels below, one per 8 bytes.
// The expm1 is the usual exp reduction: k = round(t*log2e) through the
// 1.5*2^52 shift (whose low mantissa bits then hold k), r = t - k*ln2
// with fdlibm's two-part ln2, and the Taylor polynomial of degree 13 for
// expm1(r), whose truncation error on |r| <= ln2/2 is under 2^-56
// relative; coefficients are 1/n! rounded to float64.
DATA ex64<>+0(SB)/8, $0x4338000000000000   // shift = 1.5*2^52
DATA ex64<>+8(SB)/8, $0x3ff71547652b82fe   // log2(e)
DATA ex64<>+16(SB)/8, $0x3fe62e42fee00000  // ln2 high
DATA ex64<>+24(SB)/8, $0x3dea39ef35793c76  // ln2 low
DATA ex64<>+32(SB)/8, $0x3ff0000000000000  // 1.0, also the exponent bias as bits
DATA ex64<>+40(SB)/8, $0xc086200000000000  // clamp = -708
DATA ex64<>+48(SB)/8, $0x3fe0000000000000  // 1/2!
DATA ex64<>+56(SB)/8, $0x3fc5555555555555  // 1/3!
DATA ex64<>+64(SB)/8, $0x3fa5555555555555  // 1/4!
DATA ex64<>+72(SB)/8, $0x3f81111111111111  // 1/5!
DATA ex64<>+80(SB)/8, $0x3f56c16c16c16c17  // 1/6!
DATA ex64<>+88(SB)/8, $0x3f2a01a01a01a01a  // 1/7!
DATA ex64<>+96(SB)/8, $0x3efa01a01a01a01a  // 1/8!
DATA ex64<>+104(SB)/8, $0x3ec71de3a556c734 // 1/9!
DATA ex64<>+112(SB)/8, $0x3e927e4fb7789f5c // 1/10!
DATA ex64<>+120(SB)/8, $0x3e5ae64567f544e4 // 1/11!
DATA ex64<>+128(SB)/8, $0x3e21eed8eff8d898 // 1/12!
DATA ex64<>+136(SB)/8, $0x3de6124613a86d09 // 1/13!
DATA ex64<>+144(SB)/8, $0xc000000000000000 // -2.0
DATA ex64<>+152(SB)/8, $0x4000000000000000 // 2.0
DATA ex64<>+160(SB)/8, $0x7fffffffffffffff // |x| mask
GLOBL ex64<>(SB), RODATA|NOPTR, $168

// EXPM1 sets Y4 = expm1(Y2) on 4 lanes for Y2 in [-708, 0] (or NaN,
// which propagates), as 2^k*expm1(r) + (2^k - 1) in one fused step: the
// first term carries the rounding error, the second is exact. Clobbers
// Y2, Y3, Y5 and Y6.
#define EXPM1 \
	VBROADCASTSD ex64<>+0(SB), Y3; \
	VBROADCASTSD ex64<>+8(SB), Y5; \
	VFMADD231PD  Y5, Y2, Y3; \
	VBROADCASTSD ex64<>+0(SB), Y5; \
	VSUBPD       Y5, Y3, Y5; \
	VPSLLQ       $52, Y3, Y3; \
	VBROADCASTSD ex64<>+32(SB), Y6; \
	VPADDQ       Y6, Y3, Y3; \
	VBROADCASTSD ex64<>+16(SB), Y6; \
	VFNMADD231PD Y6, Y5, Y2; \
	VBROADCASTSD ex64<>+24(SB), Y6; \
	VFNMADD231PD Y6, Y5, Y2; \
	VBROADCASTSD ex64<>+136(SB), Y4; \
	VBROADCASTSD ex64<>+128(SB), Y6; \
	VFMADD213PD  Y6, Y2, Y4; \
	VBROADCASTSD ex64<>+120(SB), Y6; \
	VFMADD213PD  Y6, Y2, Y4; \
	VBROADCASTSD ex64<>+112(SB), Y6; \
	VFMADD213PD  Y6, Y2, Y4; \
	VBROADCASTSD ex64<>+104(SB), Y6; \
	VFMADD213PD  Y6, Y2, Y4; \
	VBROADCASTSD ex64<>+96(SB), Y6; \
	VFMADD213PD  Y6, Y2, Y4; \
	VBROADCASTSD ex64<>+88(SB), Y6; \
	VFMADD213PD  Y6, Y2, Y4; \
	VBROADCASTSD ex64<>+80(SB), Y6; \
	VFMADD213PD  Y6, Y2, Y4; \
	VBROADCASTSD ex64<>+72(SB), Y6; \
	VFMADD213PD  Y6, Y2, Y4; \
	VBROADCASTSD ex64<>+64(SB), Y6; \
	VFMADD213PD  Y6, Y2, Y4; \
	VBROADCASTSD ex64<>+56(SB), Y6; \
	VFMADD213PD  Y6, Y2, Y4; \
	VBROADCASTSD ex64<>+48(SB), Y6; \
	VFMADD213PD  Y6, Y2, Y4; \
	VMULPD       Y2, Y4, Y4; \
	VFMADD213PD  Y2, Y2, Y4; \
	VBROADCASTSD ex64<>+32(SB), Y6; \
	VSUBPD       Y6, Y3, Y5; \
	VFMADD213PD  Y5, Y3, Y4

// func vselu64(v *float64, n int, lambda, lambdaAlpha float64)
//
// SELU in place over a contiguous float64 slice, 4 lanes a step:
// lambda*x where the sign bit of x is clear, lambdaAlpha*expm1(x) where
// it is set. n must be a positive multiple of 4; the Go wrapper rounds
// the tail through a stack buffer.
TEXT ·vselu64(SB), NOSPLIT, $0-32
	MOVQ         v+0(FP), DI
	MOVQ         n+8(FP), CX
	VBROADCASTSD lambda+16(FP), Y8
	VBROADCASTSD lambdaAlpha+24(FP), Y9
	VBROADCASTSD ex64<>+40(SB), Y15
	XORQ         BX, BX

vselu64loop:
	VMOVUPD (DI)(BX*8), Y0
	VMULPD  Y8, Y0, Y1

	// t = max(min(x, 0), -708), a NaN x staying NaN (min and max return
	// their last Go operand when either is NaN).
	VXORPD Y2, Y2, Y2
	VMINPD Y0, Y2, Y2
	VMAXPD Y2, Y15, Y2
	EXPM1
	VMULPD Y9, Y4, Y4

	VBLENDVPD Y0, Y4, Y1, Y1
	VMOVUPD   Y1, (DI)(BX*8)
	ADDQ      $4, BX
	CMPQ      BX, CX
	JLT       vselu64loop

	VZEROUPPER
	RET

// func vtanh64(v *float64, n int)
//
// tanh in place over a contiguous float64 slice, 4 lanes a step:
// tanh|x| = -e/(2+e) with e = expm1(-2|x|), which keeps small |x|
// exact to relative precision, then x's sign bit is copied onto the
// result. n must be a positive multiple of 4.
TEXT ·vtanh64(SB), NOSPLIT, $0-16
	MOVQ         v+0(FP), DI
	MOVQ         n+8(FP), CX
	VBROADCASTSD ex64<>+160(SB), Y10
	VBROADCASTSD ex64<>+144(SB), Y11
	VBROADCASTSD ex64<>+152(SB), Y12
	VBROADCASTSD ex64<>+40(SB), Y15
	XORQ         BX, BX

vtanh64loop:
	VMOVUPD (DI)(BX*8), Y0
	VANDPD  Y10, Y0, Y1
	VXORPD  Y1, Y0, Y7
	VMULPD  Y11, Y1, Y2
	VMAXPD  Y2, Y15, Y2
	EXPM1

	VXORPD Y5, Y5, Y5
	VSUBPD Y4, Y5, Y5
	VADDPD Y12, Y4, Y4
	VDIVPD Y4, Y5, Y5
	VORPD  Y7, Y5, Y5
	VMOVUPD Y5, (DI)(BX*8)
	ADDQ    $4, BX
	CMPQ    BX, CX
	JLT     vtanh64loop

	VZEROUPPER
	RET

// func vselugrad64(dst, grad, y *float64, n int, lambda, lambdaAlpha float64)
//
// The SELU backward epilogue from the cached output: dst = grad * lambda
// where y > 0, else grad * (y + lambdaAlpha). The same two IEEE operations
// per element as the scalar form, so the results are bit-identical.
// n must be a positive multiple of 4.
TEXT ·vselugrad64(SB), NOSPLIT, $0-48
	MOVQ         dst+0(FP), DI
	MOVQ         grad+8(FP), SI
	MOVQ         y+16(FP), DX
	MOVQ         n+24(FP), CX
	VBROADCASTSD lambda+32(FP), Y8
	VBROADCASTSD lambdaAlpha+40(FP), Y9
	VXORPD       Y10, Y10, Y10
	XORQ         BX, BX

vselugrad64loop:
	VMOVUPD   (DX)(BX*8), Y0
	VADDPD    Y9, Y0, Y1
	VCMPPD    $0x1e, Y10, Y0, Y2
	VBLENDVPD Y2, Y8, Y1, Y1
	VMULPD    (SI)(BX*8), Y1, Y1
	VMOVUPD   Y1, (DI)(BX*8)
	ADDQ      $4, BX
	CMPQ      BX, CX
	JLT       vselugrad64loop

	VZEROUPPER
	RET

// Lane masks of the reconstruction head's ragged last chunk: the four
// qwords at mask64<>+32-8*t enable the first t lanes, t in 1..3.
DATA mask64<>+0(SB)/8, $0xffffffffffffffff
DATA mask64<>+8(SB)/8, $0xffffffffffffffff
DATA mask64<>+16(SB)/8, $0xffffffffffffffff
DATA mask64<>+24(SB)/8, $0xffffffffffffffff
DATA mask64<>+32(SB)/8, $0
DATA mask64<>+40(SB)/8, $0
DATA mask64<>+48(SB)/8, $0
DATA mask64<>+56(SB)/8, $0
GLOBL mask64<>(SB), RODATA|NOPTR, $64

// RECON_DPRE takes Y0 = out on 4 lanes and the row's target chunk in Y1
// and leaves dpre = d*c*(1-y^2) in Y1, with d = y - target, adding d*d
// to Y8. y = tanh(out) is vtanh64's to the bit: e/(-2-e) is -e/(2+e)
// with the negation moved into the divisor, one operation fewer.
// Clobbers Y2-Y7.
#define RECON_DPRE \
	VANDPD       Y10, Y0, Y2; \
	VXORPD       Y2, Y0, Y7; \
	VMULPD       Y11, Y2, Y2; \
	VMAXPD       Y2, Y15, Y2; \
	EXPM1; \
	VSUBPD       Y4, Y11, Y5; \
	VDIVPD       Y5, Y4, Y5; \
	VORPD        Y7, Y5, Y5; \
	VSUBPD       Y1, Y5, Y1; \
	VFMADD231PD  Y1, Y1, Y8; \
	VMOVAPD      Y14, Y2; \
	VFNMADD231PD Y5, Y5, Y2; \
	VMULPD       Y9, Y1, Y1; \
	VMULPD       Y2, Y1, Y1

// HSUM sets the low lane of X1 to the sum of Y1's four lanes, as
// (l0+l1) + (l2+l3). Clobbers X2.
#define HSUM \
	VEXTRACTF128 $1, Y1, X2; \
	VHADDPD      X2, X1, X1; \
	VHADDPD      X1, X1, X1

// RECON_SETUP takes DI = hid, CX = k and R8 = n and leaves DI past the
// row's k values, CX = -8k, R8 = 8n, R9 = 8(n&^3) the full chunks' end
// and the lane mask of the ragged last chunk in Y13. Clobbers AX and BX.
#define RECON_SETUP \
	SHLQ    $3, CX; \
	ADDQ    CX, DI; \
	NEGQ    CX; \
	MOVQ    R8, R9; \
	ANDQ    $-4, R9; \
	SHLQ    $3, R8; \
	SHLQ    $3, R9; \
	MOVQ    R8, AX; \
	SUBQ    R9, AX; \
	LEAQ    mask64<>+32(SB), BX; \
	SUBQ    AX, BX; \
	VMOVUPD (BX), Y13

// BACK_KK is reconBack64's work on one 4-lane chunk of dpre (Y8) for one
// row of w and dw: the dw chunk at dwm gains h*dpre, with h broadcast in
// hreg, and acc gains dpre times the w chunk at wm.
#define BACK_KK(dwm, wm, hreg, acc) \
	VMOVUPD     dwm, Y9; \
	VFMADD231PD Y8, hreg, Y9; \
	VMOVUPD     Y9, dwm; \
	VFMADD231PD wm, Y8, acc

// BACK2_KK is reconBack64x2's work on one 4-lane chunk of two rows' dpre
// (Y8, Y9) for one row of w and dw: the dw chunk at dwm gains ha*dpre_a
// and then hb*dpre_b, as two reconBack64 calls would add them, and acca
// and accb gain each row's dpre times the w chunk at wm.
#define BACK2_KK(dwm, wm, ha, hb, acca, accb) \
	VMOVUPD     dwm, Y10; \
	VFMADD231PD Y8, ha, Y10; \
	VFMADD231PD Y9, hb, Y10; \
	VMOVUPD     Y10, dwm; \
	VMOVUPD     wm, Y11; \
	VFMADD231PD Y11, Y8, acca; \
	VFMADD231PD Y11, Y9, accb

// BACK2_KK_TAIL is BACK2_KK on a ragged last chunk, through the lane mask.
#define BACK2_KK_TAIL(dwm, wm, ha, hb, acca, accb) \
	VMASKMOVPD  dwm, Y13, Y10; \
	VFMADD231PD Y8, ha, Y10; \
	VFMADD231PD Y9, hb, Y10; \
	VMASKMOVPD  Y10, Y13, dwm; \
	VMASKMOVPD  wm, Y13, Y11; \
	VFMADD231PD Y11, Y8, acca; \
	VFMADD231PD Y11, Y9, accb

// REDUCE4 sets Y9 to the lane sums of Y4-Y7, each (l0+l1) + (l2+l3) as
// HSUM adds them. Clobbers Y4, Y6 and Y8.
#define REDUCE4 \
	VHADDPD    Y5, Y4, Y4; \
	VHADDPD    Y7, Y6, Y6; \
	VPERM2F128 $0x21, Y6, Y4, Y8; \
	VBLENDPD   $0xc, Y6, Y4, Y9; \
	VADDPD     Y8, Y9, Y9

// The reconstruction head runs a row in three passes over 4-lane chunks
// of the row, which the row's dpre buffer carries between them.
// reconFront64 runs the first two:
//  1. out = hid.w into dpre, four chunks at a time while they last, each
//     summed over the k rows of w in order, one FMA per row;
//  2. per chunk, RECON_DPRE on out and the target t, in place, and the
//     squared errors into the result.
// reconBack64 runs the third, for one row:
//  3. per row kk of w, four at a time while they last: dw[kk] +=
//     hid[kk]*dpre and dhid[kk] = dpre.w[kk], summed per lane over the
//     chunks and then across the lanes as HSUM does;
// and reconBack64x2 runs it for two consecutive rows at once, two rows
// of w at a time, with the same sums in the same order: each chunk of
// dw is loaded and stored once for both rows.
// A ragged last chunk of n%4 lanes reads w, t and dw through the lane
// mask in Y13, so its dead lanes are zeros throughout: out 0, y 0, d 0
// and dpre 0, which leave every sum unchanged. A row's dpre must hold n
// rounded up to 4 values; k and n must be >= 1.
//
// Registers: DI and R12 point past the row's k values of hid and dhid,
// which CX = -8k indexes through BX; SI and DX are w and dw, R8 = 8n
// their row stride and R9 = 8(n&^3) the full chunks' end; R11 is dpre;
// AX indexes chunks, and R13 and R14 walk w and dw. R10 is t in passes
// 1-2, 24n in reconBack64 and the second row's dpre in reconBack64x2. In
// pass 2 Y8 sums d*d, Y9 is c, Y14 1.0, and Y10, Y11 and Y15 hold
// vtanh64's constants.

// func reconFront64(hid *float64, k int, w *float64, n int, t, dpre *float64, c float64) (sum float64)
TEXT ·reconFront64(SB), NOSPLIT, $0-64
	MOVQ hid+0(FP), DI
	MOVQ k+8(FP), CX
	MOVQ w+16(FP), SI
	MOVQ n+24(FP), R8
	MOVQ t+32(FP), R10
	MOVQ dpre+40(FP), R11
	RECON_SETUP

	// Pass 1: out = hid.w, four chunks at a time.
	XORQ AX, AX
	MOVQ R9, R14
	SUBQ $96, R14 // the last start of a full quad

rf64quad:
	CMPQ   AX, R14
	JGE    rf64one
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   CX, BX
	LEAQ   (SI)(AX*1), R13

rf64quadk:
	VBROADCASTSD (DI)(BX*1), Y4
	VFMADD231PD  (R13), Y4, Y0
	VFMADD231PD  32(R13), Y4, Y1
	VFMADD231PD  64(R13), Y4, Y2
	VFMADD231PD  96(R13), Y4, Y3
	ADDQ         R8, R13
	ADDQ         $8, BX
	JNZ          rf64quadk
	VMOVUPD      Y0, (R11)(AX*1)
	VMOVUPD      Y1, 32(R11)(AX*1)
	VMOVUPD      Y2, 64(R11)(AX*1)
	VMOVUPD      Y3, 96(R11)(AX*1)
	ADDQ         $128, AX
	JMP          rf64quad

rf64one:
	CMPQ   AX, R9
	JGE    rf64onetail
	VXORPD Y0, Y0, Y0
	MOVQ   CX, BX
	LEAQ   (SI)(AX*1), R13

rf64onek:
	VBROADCASTSD (DI)(BX*1), Y4
	VFMADD231PD  (R13), Y4, Y0
	ADDQ         R8, R13
	ADDQ         $8, BX
	JNZ          rf64onek
	VMOVUPD      Y0, (R11)(AX*1)
	ADDQ         $32, AX
	JMP          rf64one

rf64onetail:
	CMPQ   AX, R8
	JGE    rf64act
	VXORPD Y0, Y0, Y0
	MOVQ   CX, BX
	LEAQ   (SI)(AX*1), R13

rf64onetailk:
	VBROADCASTSD (DI)(BX*1), Y4
	VMASKMOVPD   (R13), Y13, Y5
	VFMADD231PD  Y5, Y4, Y0
	ADDQ         R8, R13
	ADDQ         $8, BX
	JNZ          rf64onetailk
	VMOVUPD      Y0, (R11)(AX*1)

	// Pass 2: tanh, error and dpre, chunk by chunk.
rf64act:
	VBROADCASTSD c+48(FP), Y9
	VBROADCASTSD ex64<>+160(SB), Y10
	VBROADCASTSD ex64<>+144(SB), Y11
	VBROADCASTSD ex64<>+32(SB), Y14
	VBROADCASTSD ex64<>+40(SB), Y15
	VXORPD       Y8, Y8, Y8
	XORQ         AX, AX
	TESTQ        R9, R9
	JZ           rf64acttail

rf64actloop:
	VMOVUPD (R11)(AX*1), Y0
	VMOVUPD (R10)(AX*1), Y1
	RECON_DPRE
	VMOVUPD Y1, (R11)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, R9
	JLT     rf64actloop

rf64acttail:
	CMPQ       AX, R8
	JGE        rf64loss
	VMOVUPD    (R11)(AX*1), Y0
	VMASKMOVPD (R10)(AX*1), Y13, Y1
	RECON_DPRE
	VMOVUPD    Y1, (R11)(AX*1)

rf64loss:
	VMOVAPD Y8, Y1
	HSUM
	VMOVSD  X1, sum+56(FP)
	VZEROUPPER
	RET

// func reconBack64(dhid, hid *float64, k int, w, dw *float64, n int, dpre *float64)
TEXT ·reconBack64(SB), NOSPLIT, $0-56
	MOVQ dhid+0(FP), R12
	MOVQ hid+8(FP), DI
	MOVQ k+16(FP), CX
	MOVQ w+24(FP), SI
	MOVQ dw+32(FP), DX
	MOVQ n+40(FP), R8
	MOVQ dpre+48(FP), R11
	SUBQ DI, R12
	RECON_SETUP
	ADDQ DI, R12
	LEAQ (R8)(R8*2), R10
	MOVQ CX, BX
	MOVQ SI, R13
	MOVQ DX, R14

rb64quadrow:
	CMPQ         BX, $-32
	JGT          rb64row
	VBROADCASTSD (DI)(BX*1), Y0
	VBROADCASTSD 8(DI)(BX*1), Y1
	VBROADCASTSD 16(DI)(BX*1), Y2
	VBROADCASTSD 24(DI)(BX*1), Y3
	VXORPD       Y4, Y4, Y4
	VXORPD       Y5, Y5, Y5
	VXORPD       Y6, Y6, Y6
	VXORPD       Y7, Y7, Y7
	XORQ         AX, AX
	TESTQ        R9, R9
	JZ           rb64quadtail

rb64quadcol:
	VMOVUPD (R11)(AX*1), Y8
	BACK_KK((R14), (R13), Y0, Y4)
	BACK_KK((R14)(R8*1), (R13)(R8*1), Y1, Y5)
	BACK_KK((R14)(R8*2), (R13)(R8*2), Y2, Y6)
	BACK_KK((R14)(R10*1), (R13)(R10*1), Y3, Y7)
	ADDQ    $32, R13
	ADDQ    $32, R14
	ADDQ    $32, AX
	CMPQ    AX, R9
	JLT     rb64quadcol

rb64quadtail:
	CMPQ        AX, R8
	JGE         rb64quadsum
	VMOVUPD     (R11)(AX*1), Y8
	VMASKMOVPD  (R14), Y13, Y9
	VFMADD231PD Y8, Y0, Y9
	VMASKMOVPD  Y9, Y13, (R14)
	VMASKMOVPD  (R13), Y13, Y10
	VFMADD231PD Y10, Y8, Y4
	VMASKMOVPD  (R14)(R8*1), Y13, Y9
	VFMADD231PD Y8, Y1, Y9
	VMASKMOVPD  Y9, Y13, (R14)(R8*1)
	VMASKMOVPD  (R13)(R8*1), Y13, Y10
	VFMADD231PD Y10, Y8, Y5
	VMASKMOVPD  (R14)(R8*2), Y13, Y9
	VFMADD231PD Y8, Y2, Y9
	VMASKMOVPD  Y9, Y13, (R14)(R8*2)
	VMASKMOVPD  (R13)(R8*2), Y13, Y10
	VFMADD231PD Y10, Y8, Y6
	VMASKMOVPD  (R14)(R10*1), Y13, Y9
	VFMADD231PD Y8, Y3, Y9
	VMASKMOVPD  Y9, Y13, (R14)(R10*1)
	VMASKMOVPD  (R13)(R10*1), Y13, Y10
	VFMADD231PD Y10, Y8, Y7

rb64quadsum:
	// dhid[kk..kk+3] = the lane sums of Y4-Y7, each (l0+l1) + (l2+l3).
	VHADDPD    Y5, Y4, Y4
	VHADDPD    Y7, Y6, Y6
	VPERM2F128 $0x21, Y6, Y4, Y8
	VBLENDPD   $0xc, Y6, Y4, Y9
	VADDPD     Y8, Y9, Y9
	VMOVUPD    Y9, (R12)(BX*1)
	SUBQ       AX, R13
	SUBQ       AX, R14
	LEAQ       (R13)(R8*4), R13
	LEAQ       (R14)(R8*4), R14
	ADDQ       $32, BX
	JMP        rb64quadrow

rb64row:
	TESTQ BX, BX
	JZ    rb64done
	VBROADCASTSD (DI)(BX*1), Y0
	VXORPD       Y1, Y1, Y1
	XORQ         AX, AX

rb64col:
	CMPQ        AX, R9
	JGE         rb64rowtail
	VMOVUPD     (R11)(AX*1), Y2
	VMOVUPD     (R14)(AX*1), Y3
	VFMADD231PD Y2, Y0, Y3
	VMOVUPD     Y3, (R14)(AX*1)
	VFMADD231PD (R13)(AX*1), Y2, Y1
	ADDQ        $32, AX
	JMP         rb64col

rb64rowtail:
	CMPQ        AX, R8
	JGE         rb64rowsum
	VMOVUPD     (R11)(AX*1), Y2
	VMASKMOVPD  (R14)(AX*1), Y13, Y3
	VFMADD231PD Y2, Y0, Y3
	VMASKMOVPD  Y3, Y13, (R14)(AX*1)
	VMASKMOVPD  (R13)(AX*1), Y13, Y4
	VFMADD231PD Y4, Y2, Y1

rb64rowsum:
	HSUM
	VMOVSD X1, (R12)(BX*1)
	ADDQ   R8, R13
	ADDQ   R8, R14
	ADDQ   $8, BX
	JMP    rb64row

rb64done:
	VZEROUPPER
	RET

// func reconBack64x2(dhid, hid *float64, k int, w, dw *float64, n int, dpre *float64)
//
// reconBack64 for rows a and b = a+1 of hid and dhid, whose dpre rows
// follow each other in dpre, n rounded up to 4 apart. B's hid and dhid
// values are 8k past a's, at DI-CX and R12-CX; R10 is b's dpre.
TEXT ·reconBack64x2(SB), NOSPLIT, $0-56
	MOVQ dhid+0(FP), R12
	MOVQ hid+8(FP), DI
	MOVQ k+16(FP), CX
	MOVQ w+24(FP), SI
	MOVQ dw+32(FP), DX
	MOVQ n+40(FP), R8
	MOVQ dpre+48(FP), R11
	SUBQ DI, R12
	RECON_SETUP
	ADDQ DI, R12
	LEAQ 24(R8), R10
	ANDQ $-32, R10
	ADDQ R11, R10
	MOVQ CX, BX
	MOVQ SI, R13
	MOVQ DX, R14

rp64pair:
	CMPQ         BX, $-16
	JGT          rp64one
	VBROADCASTSD (DI)(BX*1), Y0
	VBROADCASTSD 8(DI)(BX*1), Y1
	MOVQ         DI, AX
	SUBQ         CX, AX
	VBROADCASTSD (AX)(BX*1), Y2
	VBROADCASTSD 8(AX)(BX*1), Y3
	VXORPD       Y4, Y4, Y4
	VXORPD       Y5, Y5, Y5
	VXORPD       Y6, Y6, Y6
	VXORPD       Y7, Y7, Y7
	XORQ         AX, AX
	TESTQ        R9, R9
	JZ           rp64pairtail

rp64paircol:
	VMOVUPD (R11)(AX*1), Y8
	VMOVUPD (R10)(AX*1), Y9
	BACK2_KK((R14), (R13), Y0, Y2, Y4, Y6)
	BACK2_KK((R14)(R8*1), (R13)(R8*1), Y1, Y3, Y5, Y7)
	ADDQ    $32, R13
	ADDQ    $32, R14
	ADDQ    $32, AX
	CMPQ    AX, R9
	JLT     rp64paircol

rp64pairtail:
	CMPQ    R9, R8
	JGE     rp64pairsum
	VMOVUPD (R11)(R9*1), Y8
	VMOVUPD (R10)(R9*1), Y9
	BACK2_KK_TAIL((R14), (R13), Y0, Y2, Y4, Y6)
	BACK2_KK_TAIL((R14)(R8*1), (R13)(R8*1), Y1, Y3, Y5, Y7)

rp64pairsum:
	// Y9 = dhid_a[kk], dhid_a[kk+1], dhid_b[kk], dhid_b[kk+1].
	REDUCE4
	VMOVUPD      X9, (R12)(BX*1)
	MOVQ         R12, AX
	SUBQ         CX, AX
	VEXTRACTF128 $1, Y9, (AX)(BX*1)
	SUBQ         R9, R13
	SUBQ         R9, R14
	LEAQ         (R13)(R8*2), R13
	LEAQ         (R14)(R8*2), R14
	ADDQ         $16, BX
	JMP          rp64pair

rp64one:
	TESTQ        BX, BX
	JZ           rp64done
	VBROADCASTSD (DI)(BX*1), Y0
	MOVQ         DI, AX
	SUBQ         CX, AX
	VBROADCASTSD (AX)(BX*1), Y2
	VXORPD       Y4, Y4, Y4
	VXORPD       Y6, Y6, Y6
	XORQ         AX, AX
	TESTQ        R9, R9
	JZ           rp64onetail

rp64onecol:
	VMOVUPD (R11)(AX*1), Y8
	VMOVUPD (R10)(AX*1), Y9
	BACK2_KK((R14), (R13), Y0, Y2, Y4, Y6)
	ADDQ    $32, R13
	ADDQ    $32, R14
	ADDQ    $32, AX
	CMPQ    AX, R9
	JLT     rp64onecol

rp64onetail:
	CMPQ    R9, R8
	JGE     rp64onesum
	VMOVUPD (R11)(R9*1), Y8
	VMOVUPD (R10)(R9*1), Y9
	BACK2_KK_TAIL((R14), (R13), Y0, Y2, Y4, Y6)

rp64onesum:
	// k is odd: this was its last row of w.
	VMOVAPD Y4, Y1
	HSUM
	VMOVSD  X1, (R12)(BX*1)
	VMOVAPD Y6, Y1
	HSUM
	MOVQ    R12, AX
	SUBQ    CX, AX
	VMOVSD  X1, (AX)(BX*1)

rp64done:
	VZEROUPPER
	RET
