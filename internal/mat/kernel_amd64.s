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
