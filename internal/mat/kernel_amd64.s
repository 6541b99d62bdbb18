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

// func sgemmRows4x8(dst *float32, ldd int, a *float32, lda, ka int, b *float32, ldb int, k int, groups int)
//
// Float32 strided-B row kernel: 4 dst rows x 8 columns in Y0-Y3 for
// the whole k loop — the Bellamy MLP layers are 4..16 columns wide, far
// too skinny for per-k-step kernel calls. Output row r reads
// a[r*lda + p*ka] at step p: ka = 1 walks rows of a (a*b), lda = 1
// walks its columns (aᵀ*b). It runs groups such blocks down the rows,
// each 4 rows of dst and of a (4*lda) past the one before, so a strip
// of a tall product is one call; groups must be >= 1.
TEXT ·sgemmRows4x8(SB), NOSPLIT, $0-72
	MOVQ dst+0(FP), DI
	MOVQ ldd+8(FP), R8
	MOVQ a+16(FP), SI
	MOVQ lda+24(FP), R9
	MOVQ ka+32(FP), R11
	MOVQ b+40(FP), R13
	MOVQ ldb+48(FP), R10
	MOVQ k+56(FP), R14
	MOVQ groups+64(FP), DX
	SHLQ $2, R8
	SHLQ $2, R9
	SHLQ $2, R10
	SHLQ $2, R11
	LEAQ (R9)(R9*2), R12

sr48group:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	MOVQ   R13, BX
	MOVQ   SI, AX
	MOVQ   R14, CX

sr48loop:
	VMOVUPS      (BX), Y4
	VBROADCASTSS (AX), Y5
	VFMADD231PS  Y5, Y4, Y0
	VBROADCASTSS (AX)(R9*1), Y6
	VFMADD231PS  Y6, Y4, Y1
	VBROADCASTSS (AX)(R9*2), Y5
	VFMADD231PS  Y5, Y4, Y2
	VBROADCASTSS (AX)(R12*1), Y6
	VFMADD231PS  Y6, Y4, Y3
	ADDQ R10, BX
	ADDQ R11, AX
	DECQ CX
	JNZ  sr48loop

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
	ADDQ    R8, DI
	LEAQ    (SI)(R9*4), SI
	DECQ    DX
	JNZ     sr48group
	VZEROUPPER
	RET

// func sgemmRows4x4(dst *float32, ldd int, a *float32, lda, ka int, b *float32, ldb int, k int, groups int)
//
// 4-column xmm variant of sgemmRows4x8.
TEXT ·sgemmRows4x4(SB), NOSPLIT, $0-72
	MOVQ dst+0(FP), DI
	MOVQ ldd+8(FP), R8
	MOVQ a+16(FP), SI
	MOVQ lda+24(FP), R9
	MOVQ ka+32(FP), R11
	MOVQ b+40(FP), R13
	MOVQ ldb+48(FP), R10
	MOVQ k+56(FP), R14
	MOVQ groups+64(FP), DX
	SHLQ $2, R8
	SHLQ $2, R9
	SHLQ $2, R10
	SHLQ $2, R11
	LEAQ (R9)(R9*2), R12

sr44group:
	VXORPS X0, X0, X0
	VXORPS X1, X1, X1
	VXORPS X2, X2, X2
	VXORPS X3, X3, X3
	MOVQ   R13, BX
	MOVQ   SI, AX
	MOVQ   R14, CX

sr44loop:
	VMOVUPS      (BX), X4
	VBROADCASTSS (AX), X5
	VFMADD231PS  X5, X4, X0
	VBROADCASTSS (AX)(R9*1), X6
	VFMADD231PS  X6, X4, X1
	VBROADCASTSS (AX)(R9*2), X5
	VFMADD231PS  X5, X4, X2
	VBROADCASTSS (AX)(R12*1), X6
	VFMADD231PS  X6, X4, X3
	ADDQ R10, BX
	ADDQ R11, AX
	DECQ CX
	JNZ  sr44loop

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
	ADDQ    R8, DI
	LEAQ    (SI)(R9*4), SI
	DECQ    DX
	JNZ     sr44group
	VZEROUPPER
	RET

// Constants of the float32 activation kernels, one per 4 bytes. The
// expm1 is the usual exp reduction: k = round(t*log2e) through the
// 1.5*2^23 shift (whose low mantissa bits then hold k), r = t - k*ln2
// with Cephes' two-part ln2 (whose high part times any k in range is
// exact), and the Taylor polynomial of degree 7 for expm1(r), whose
// truncation error on |r| <= ln2/2 is under 2^-26 relative;
// coefficients are 1/n! rounded to float32.
DATA ex32<>+0(SB)/4, $0x3fb8aa3b  // log2(e)
DATA ex32<>+4(SB)/4, $0x3f318000  // ln2 high = 0.693359375
DATA ex32<>+8(SB)/4, $0xb95e8083  // ln2 low = -2.12194440e-4
DATA ex32<>+12(SB)/4, $0x3f800000 // 1.0, also the exponent bias as bits
DATA ex32<>+16(SB)/4, $0x3f000000 // 1/2!
DATA ex32<>+20(SB)/4, $0x3e2aaaab // 1/3!
DATA ex32<>+24(SB)/4, $0x3d2aaaab // 1/4!
DATA ex32<>+28(SB)/4, $0x3c088889 // 1/5!
DATA ex32<>+32(SB)/4, $0x3ab60b61 // 1/6!
DATA ex32<>+36(SB)/4, $0x39500d01 // 1/7!
DATA ex32<>+40(SB)/4, $0x4b400000 // shift = 1.5*2^23
DATA ex32<>+44(SB)/4, $0xc2ae0000 // clamp = -87
DATA ex32<>+48(SB)/4, $0xc0000000 // -2.0
DATA ex32<>+52(SB)/4, $0x7fffffff // |x| mask
GLOBL ex32<>(SB), RODATA|NOPTR, $56

// The constants of ex32 the reconstruction head's two-row tanh reads as
// memory operands, each repeated over 8 lanes, so that two rows' chains
// fit the 16 ymm registers at once.
DATA exv<>+0(SB)/8, $0x7fffffff7fffffff // |x| mask
DATA exv<>+8(SB)/8, $0x7fffffff7fffffff
DATA exv<>+16(SB)/8, $0x7fffffff7fffffff
DATA exv<>+24(SB)/8, $0x7fffffff7fffffff
DATA exv<>+32(SB)/8, $0x4b4000004b400000 // shift = 1.5*2^23
DATA exv<>+40(SB)/8, $0x4b4000004b400000
DATA exv<>+48(SB)/8, $0x4b4000004b400000
DATA exv<>+56(SB)/8, $0x4b4000004b400000
DATA exv<>+64(SB)/8, $0x3fb8aa3b3fb8aa3b // log2(e)
DATA exv<>+72(SB)/8, $0x3fb8aa3b3fb8aa3b
DATA exv<>+80(SB)/8, $0x3fb8aa3b3fb8aa3b
DATA exv<>+88(SB)/8, $0x3fb8aa3b3fb8aa3b
DATA exv<>+96(SB)/8, $0x3f8000003f800000 // 1.0, also the exponent bias as bits
DATA exv<>+104(SB)/8, $0x3f8000003f800000
DATA exv<>+112(SB)/8, $0x3f8000003f800000
DATA exv<>+120(SB)/8, $0x3f8000003f800000
DATA exv<>+128(SB)/8, $0x3f3180003f318000 // ln2 high
DATA exv<>+136(SB)/8, $0x3f3180003f318000
DATA exv<>+144(SB)/8, $0x3f3180003f318000
DATA exv<>+152(SB)/8, $0x3f3180003f318000
DATA exv<>+160(SB)/8, $0xb95e8083b95e8083 // ln2 low
DATA exv<>+168(SB)/8, $0xb95e8083b95e8083
DATA exv<>+176(SB)/8, $0xb95e8083b95e8083
DATA exv<>+184(SB)/8, $0xb95e8083b95e8083
DATA exv<>+192(SB)/8, $0x39500d0139500d01 // 1/7!
DATA exv<>+200(SB)/8, $0x39500d0139500d01
DATA exv<>+208(SB)/8, $0x39500d0139500d01
DATA exv<>+216(SB)/8, $0x39500d0139500d01
DATA exv<>+224(SB)/8, $0x3ab60b613ab60b61 // 1/6!
DATA exv<>+232(SB)/8, $0x3ab60b613ab60b61
DATA exv<>+240(SB)/8, $0x3ab60b613ab60b61
DATA exv<>+248(SB)/8, $0x3ab60b613ab60b61
DATA exv<>+256(SB)/8, $0x3c0888893c088889 // 1/5!
DATA exv<>+264(SB)/8, $0x3c0888893c088889
DATA exv<>+272(SB)/8, $0x3c0888893c088889
DATA exv<>+280(SB)/8, $0x3c0888893c088889
DATA exv<>+288(SB)/8, $0x3d2aaaab3d2aaaab // 1/4!
DATA exv<>+296(SB)/8, $0x3d2aaaab3d2aaaab
DATA exv<>+304(SB)/8, $0x3d2aaaab3d2aaaab
DATA exv<>+312(SB)/8, $0x3d2aaaab3d2aaaab
DATA exv<>+320(SB)/8, $0x3e2aaaab3e2aaaab // 1/3!
DATA exv<>+328(SB)/8, $0x3e2aaaab3e2aaaab
DATA exv<>+336(SB)/8, $0x3e2aaaab3e2aaaab
DATA exv<>+344(SB)/8, $0x3e2aaaab3e2aaaab
DATA exv<>+352(SB)/8, $0x3f0000003f000000 // 1/2!
DATA exv<>+360(SB)/8, $0x3f0000003f000000
DATA exv<>+368(SB)/8, $0x3f0000003f000000
DATA exv<>+376(SB)/8, $0x3f0000003f000000
GLOBL exv<>(SB), RODATA|NOPTR, $384

// EXPM1F sets Y4 = expm1(Y2) on 8 lanes for Y2 in [-87, 0] (or NaN,
// which propagates), as 2^k*expm1(r) + (2^k - 1) in one fused step: the
// first term carries the rounding error, the second is exact. 2^k is
// built from k's bits in the shifted sum, off the polynomial's critical
// path. Clobbers Y2, Y3, Y5 and Y6.
#define EXPM1F \
	VBROADCASTSS ex32<>+40(SB), Y3; \
	VBROADCASTSS ex32<>+0(SB), Y5; \
	VFMADD231PS  Y5, Y2, Y3; \
	VBROADCASTSS ex32<>+40(SB), Y5; \
	VSUBPS       Y5, Y3, Y5; \
	VPSLLD       $23, Y3, Y3; \
	VBROADCASTSS ex32<>+12(SB), Y6; \
	VPADDD       Y6, Y3, Y3; \
	VBROADCASTSS ex32<>+4(SB), Y6; \
	VFNMADD231PS Y6, Y5, Y2; \
	VBROADCASTSS ex32<>+8(SB), Y6; \
	VFNMADD231PS Y6, Y5, Y2; \
	VBROADCASTSS ex32<>+36(SB), Y4; \
	VBROADCASTSS ex32<>+32(SB), Y6; \
	VFMADD213PS  Y6, Y2, Y4; \
	VBROADCASTSS ex32<>+28(SB), Y6; \
	VFMADD213PS  Y6, Y2, Y4; \
	VBROADCASTSS ex32<>+24(SB), Y6; \
	VFMADD213PS  Y6, Y2, Y4; \
	VBROADCASTSS ex32<>+20(SB), Y6; \
	VFMADD213PS  Y6, Y2, Y4; \
	VBROADCASTSS ex32<>+16(SB), Y6; \
	VFMADD213PS  Y6, Y2, Y4; \
	VMULPS       Y2, Y4, Y4; \
	VFMADD213PS  Y2, Y2, Y4; \
	VBROADCASTSS ex32<>+12(SB), Y6; \
	VSUBPS       Y6, Y3, Y5; \
	VFMADD213PS  Y5, Y3, Y4

// func vselu32(v *float32, n int, bias *float32, nb int, lambda, lambdaAlpha float32)
//
// SELU in place over a contiguous float32 slice, 8 lanes a step, of
// x = v + bias: lambda*x where the sign bit of x is clear,
// lambdaAlpha*expm1(x) where it is set. The bias is nb floats that
// repeat along v (a layer's bias row under its output rows); an
// unbiased pass adds -0, which changes no x. n and nb must be positive
// multiples of 8; the Go wrapper rounds the tail through a stack
// buffer.
TEXT ·vselu32(SB), NOSPLIT, $0-40
	MOVQ         v+0(FP), DI
	MOVQ         n+8(FP), CX
	MOVQ         bias+16(FP), SI
	MOVQ         nb+24(FP), DX
	VBROADCASTSS lambda+32(FP), Y8
	VBROADCASTSS lambdaAlpha+36(FP), Y9
	VBROADCASTSS ex32<>+44(SB), Y15
	SHLQ         $2, DX
	XORQ         R10, R10
	XORQ         AX, AX
	XORQ         BX, BX

vselu32loop:
	VMOVUPS (DI)(BX*4), Y0
	VADDPS  (SI)(AX*1), Y0, Y0
	ADDQ    $32, AX
	CMPQ    AX, DX
	CMOVQEQ R10, AX
	VMULPS  Y8, Y0, Y1

	// t = max(min(x, 0), -87), a NaN x staying NaN (min and max return
	// their first Go operand when either is NaN).
	VXORPS Y2, Y2, Y2
	VMINPS Y0, Y2, Y2
	VMAXPS Y2, Y15, Y2
	EXPM1F
	VMULPS Y9, Y4, Y4

	VBLENDVPS Y0, Y4, Y1, Y1
	VMOVUPS   Y1, (DI)(BX*4)
	ADDQ      $8, BX
	CMPQ      BX, CX
	JLT       vselu32loop

	VZEROUPPER
	RET

// func vtanh32(v *float32, n int)
//
// tanh in place over a contiguous float32 slice, 8 lanes a step:
// tanh|x| = e/(-2-e) with e = expm1(-2|x|), which keeps small |x| exact
// to relative precision, then x's sign bit is copied onto the result.
// n must be a positive multiple of 8.
TEXT ·vtanh32(SB), NOSPLIT, $0-16
	MOVQ         v+0(FP), DI
	MOVQ         n+8(FP), CX
	VBROADCASTSS ex32<>+52(SB), Y10
	VBROADCASTSS ex32<>+48(SB), Y11
	VBROADCASTSS ex32<>+44(SB), Y15
	XORQ         BX, BX

vtanh32loop:
	VMOVUPS (DI)(BX*4), Y0
	VANDPS  Y10, Y0, Y1
	VXORPS  Y1, Y0, Y7
	VMULPS  Y11, Y1, Y2
	VMAXPS  Y2, Y15, Y2
	EXPM1F

	VSUBPS  Y4, Y11, Y5
	VDIVPS  Y5, Y4, Y5
	VORPS   Y7, Y5, Y5
	VMOVUPS Y5, (DI)(BX*4)
	ADDQ    $8, BX
	CMPQ    BX, CX
	JLT     vtanh32loop

	VZEROUPPER
	RET

// func vselugrad32(dst, grad, y *float32, n int, lambda, lambdaAlpha float32)
//
// The SELU backward epilogue from the cached output: dst = grad * lambda
// where y > 0, else grad * (y + lambdaAlpha). The same two IEEE operations
// per element as the scalar form, so the results are bit-identical.
// n must be a positive multiple of 8.
TEXT ·vselugrad32(SB), NOSPLIT, $0-40
	MOVQ         dst+0(FP), DI
	MOVQ         grad+8(FP), SI
	MOVQ         y+16(FP), DX
	MOVQ         n+24(FP), CX
	VBROADCASTSS lambda+32(FP), Y8
	VBROADCASTSS lambdaAlpha+36(FP), Y9
	VXORPS       Y10, Y10, Y10
	XORQ         BX, BX

vselugrad32loop:
	VMOVUPS   (DX)(BX*4), Y0
	VADDPS    Y9, Y0, Y1
	VCMPPS    $0x1e, Y10, Y0, Y2
	VBLENDVPS Y2, Y8, Y1, Y1
	VMULPS    (SI)(BX*4), Y1, Y1
	VMOVUPS   Y1, (DI)(BX*4)
	ADDQ      $8, BX
	CMPQ      BX, CX
	JLT       vselugrad32loop

	VZEROUPPER
	RET

// Lane masks of the reconstruction head's ragged last chunk: the eight
// dwords at mask32<>+32-4*t enable the first t lanes, t in 1..7.
DATA mask32<>+0(SB)/8, $0xffffffffffffffff
DATA mask32<>+8(SB)/8, $0xffffffffffffffff
DATA mask32<>+16(SB)/8, $0xffffffffffffffff
DATA mask32<>+24(SB)/8, $0xffffffffffffffff
DATA mask32<>+32(SB)/8, $0
DATA mask32<>+40(SB)/8, $0
DATA mask32<>+48(SB)/8, $0
DATA mask32<>+56(SB)/8, $0
GLOBL mask32<>(SB), RODATA|NOPTR, $64

// RECON2_HEAD takes one chunk of rows a and b at once, the two chains
// interleaved instruction by instruction: out from the rows' dpre
// chunks (R11 and R14 at AX), y = tanh(out) — vtanh32's operations and
// operand order, so its bits — left in Y3 for a and Y8 for b. Y10 holds
// -2.0 and Y11 the expm1 clamp; every other constant is an exv operand.
// Y0-Y4 are a's temps and Y5-Y9 b's.
#define RECON2_HEAD \
	VMOVUPS      (R11)(AX*1), Y0 \
	VMOVUPS      (R14)(AX*1), Y5 \
	VANDPS       exv<>+0(SB), Y0, Y1 \
	VANDPS       exv<>+0(SB), Y5, Y6 \
	VXORPS       Y1, Y0, Y2 \
	VXORPS       Y6, Y5, Y7 \
	VMULPS       Y10, Y1, Y1 \
	VMULPS       Y10, Y6, Y6 \
	VMAXPS       Y1, Y11, Y1 \
	VMAXPS       Y6, Y11, Y6 \
	VMOVUPS      exv<>+32(SB), Y0 \
	VMOVUPS      exv<>+32(SB), Y5 \
	VFMADD231PS  exv<>+64(SB), Y1, Y0 \
	VFMADD231PS  exv<>+64(SB), Y6, Y5 \
	VSUBPS       exv<>+32(SB), Y0, Y3 \
	VSUBPS       exv<>+32(SB), Y5, Y8 \
	VPSLLD       $23, Y0, Y0 \
	VPSLLD       $23, Y5, Y5 \
	VPADDD       exv<>+96(SB), Y0, Y0 \
	VPADDD       exv<>+96(SB), Y5, Y5 \
	VFNMADD231PS exv<>+128(SB), Y3, Y1 \
	VFNMADD231PS exv<>+128(SB), Y8, Y6 \
	VFNMADD231PS exv<>+160(SB), Y3, Y1 \
	VFNMADD231PS exv<>+160(SB), Y8, Y6 \
	VMOVUPS      exv<>+192(SB), Y4 \
	VMOVUPS      exv<>+192(SB), Y9 \
	VFMADD213PS  exv<>+224(SB), Y1, Y4 \
	VFMADD213PS  exv<>+224(SB), Y6, Y9 \
	VFMADD213PS  exv<>+256(SB), Y1, Y4 \
	VFMADD213PS  exv<>+256(SB), Y6, Y9 \
	VFMADD213PS  exv<>+288(SB), Y1, Y4 \
	VFMADD213PS  exv<>+288(SB), Y6, Y9 \
	VFMADD213PS  exv<>+320(SB), Y1, Y4 \
	VFMADD213PS  exv<>+320(SB), Y6, Y9 \
	VFMADD213PS  exv<>+352(SB), Y1, Y4 \
	VFMADD213PS  exv<>+352(SB), Y6, Y9 \
	VMULPS       Y1, Y4, Y4 \
	VMULPS       Y6, Y9, Y9 \
	VFMADD213PS  Y1, Y1, Y4 \
	VFMADD213PS  Y6, Y6, Y9 \
	VSUBPS       exv<>+96(SB), Y0, Y3 \
	VSUBPS       exv<>+96(SB), Y5, Y8 \
	VFMADD213PS  Y3, Y0, Y4 \
	VFMADD213PS  Y8, Y5, Y9 \
	VSUBPS       Y4, Y10, Y3 \
	VSUBPS       Y9, Y10, Y8 \
	VDIVPS       Y3, Y4, Y3 \
	VDIVPS       Y8, Y9, Y8 \
	VORPS        Y2, Y3, Y3 \
	VORPS        Y7, Y8, Y8

// RECON2_TAIL(ta, tb) finishes the chunk from RECON2_HEAD's y and the
// rows' target chunks ta and tb: d = y - target, Σ d*d into Y14 and
// Y15, and dpre = d*c*(1-y^2) (Y12 is c) stored over out.
#define RECON2_TAIL(ta, tb) \
	VSUBPS       ta, Y3, Y2 \
	VSUBPS       tb, Y8, Y7 \
	VFMADD231PS  Y2, Y2, Y14 \
	VFMADD231PS  Y7, Y7, Y15 \
	VMOVUPS      exv<>+96(SB), Y1 \
	VMOVUPS      exv<>+96(SB), Y6 \
	VFNMADD231PS Y3, Y3, Y1 \
	VFNMADD231PS Y8, Y8, Y6 \
	VMULPS       Y12, Y2, Y2 \
	VMULPS       Y12, Y7, Y7 \
	VMULPS       Y1, Y2, Y2 \
	VMULPS       Y6, Y7, Y7 \
	VMOVUPS      Y2, (R11)(AX*1) \
	VMOVUPS      Y7, (R14)(AX*1)

// RECON_SETUP takes DI = hid, CX = k and R8 = n and leaves DI past the
// row's k values, CX = -4k, R8 = 4n, R9 = 4(n&^7) the full chunks' end
// and the lane mask of the ragged last chunk in Y13. Clobbers AX and BX.
#define RECON_SETUP \
	SHLQ    $2, CX; \
	ADDQ    CX, DI; \
	NEGQ    CX; \
	MOVQ    R8, R9; \
	ANDQ    $-8, R9; \
	SHLQ    $2, R8; \
	SHLQ    $2, R9; \
	MOVQ    R8, AX; \
	SUBQ    R9, AX; \
	LEAQ    mask32<>+32(SB), BX; \
	SUBQ    AX, BX; \
	VMOVUPS (BX), Y13

// BACK2_KK is reconBack32x2's work on one 8-lane chunk of two rows' dpre
// (Y8, Y9) for one row of w and dw: the dw chunk at dwm gains ha*dpre_a
// and then hb*dpre_b, and acca and accb gain each row's dpre times the
// w chunk at wm.
#define BACK2_KK(dwm, wm, ha, hb, acca, accb) \
	VMOVUPS     dwm, Y10; \
	VFMADD231PS Y8, ha, Y10; \
	VFMADD231PS Y9, hb, Y10; \
	VMOVUPS     Y10, dwm; \
	VMOVUPS     wm, Y11; \
	VFMADD231PS Y11, Y8, acca; \
	VFMADD231PS Y11, Y9, accb

// BACK2_KK_TAIL is BACK2_KK on a ragged last chunk, through the lane mask.
#define BACK2_KK_TAIL(dwm, wm, ha, hb, acca, accb) \
	VMASKMOVPS  dwm, Y13, Y10; \
	VFMADD231PS Y8, ha, Y10; \
	VFMADD231PS Y9, hb, Y10; \
	VMASKMOVPS  Y10, Y13, dwm; \
	VMASKMOVPS  wm, Y13, Y11; \
	VFMADD231PS Y11, Y8, acca; \
	VFMADD231PS Y11, Y9, accb

// REDUCE4 sets X9 to the lane sums of Y4-Y5-Y6-Y7, in that order, each
// ((l0+l1) + (l2+l3)) + ((l4+l5) + (l6+l7)). Clobbers Y4, Y6 and Y8.
#define REDUCE4 \
	VHADDPS      Y5, Y4, Y4; \
	VHADDPS      Y7, Y6, Y6; \
	VHADDPS      Y6, Y4, Y4; \
	VEXTRACTF128 $1, Y4, X8; \
	VADDPS       X8, X4, X9

// The reconstruction head runs rows in pairs, a and b = a+1, in three
// passes over 8-lane chunks of each row, which the rows' dpre buffers
// carry between them. reconFront32x2 runs the first two for both rows,
// interleaved, so the two rows' FMA chains and tanh chains are in flight
// together:
//  1. out = hid.w into dpre, four chunks of both rows at a time while
//     they last, each summed over the k rows of w in order, one FMA per
//     row;
//  2. per chunk of both rows, RECON2_HEAD and RECON2_TAIL on out and
//     the row's target — tanh, error and dpre, in place — and each
//     row's squared errors into its result.
// reconBack32x2 runs the third for both rows at once, two rows of w at
// a time:
//  3. per row kk of w: dw[kk] += hid_a[kk]*dpre_a + hid_b[kk]*dpre_b
//     and dhid[kk] = dpre.w[kk] for both rows, summed per lane over the
//     chunks and then across the lanes as REDUCE4 does; each chunk of dw
//     is loaded and stored once for both rows.
// Every element goes through the operations a row on its own would, in
// the same order. A ragged last chunk of n%8 lanes reads w, t and dw
// through the lane mask in Y13, so its dead lanes are zeros throughout:
// out 0, y 0, d 0 and dpre 0, which leave every sum unchanged. The dpre
// rows follow each other in dpre, n rounded up to 8 apart; k and n must
// be >= 1.
//
// Registers: DI points past row a's k values of hid, which CX = -4k
// indexes through BX; row b's are 4k further on. SI is w, R8 = 4n its
// row stride and R9 = 4(n&^7) the full chunks' end; R11 is a's dpre;
// AX indexes chunks and R13 walks w.

// func reconFront32x2(hid *float32, k int, w *float32, n int, ta, tb, dpre *float32, c float32) (suma, sumb float32)
//
// Passes 1-2 for rows a and b. DX points past b's k values of hid, R10
// and R12 are a's and b's targets, and R14 is b's dpre. In pass 2 Y14
// and Y15 sum a's and b's d*d, Y12 is c, and Y10 and Y11 hold -2.0 and
// the expm1 clamp.
TEXT ·reconFront32x2(SB), NOSPLIT, $0-72
	MOVQ hid+0(FP), DI
	MOVQ k+8(FP), CX
	MOVQ w+16(FP), SI
	MOVQ n+24(FP), R8
	MOVQ ta+32(FP), R10
	MOVQ tb+40(FP), R12
	MOVQ dpre+48(FP), R11
	RECON_SETUP
	MOVQ DI, DX
	SUBQ CX, DX
	LEAQ 28(R8), R14
	ANDQ $-32, R14
	ADDQ R11, R14

	// Pass 1: out = hid.w, four chunks of both rows at a time.
	XORQ AX, AX

rf2quad:
	LEAQ   128(AX), BX
	CMPQ   BX, R9
	JGT    rf2one
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	MOVQ   CX, BX
	LEAQ   (SI)(AX*1), R13

rf2quadk:
	VBROADCASTSS (DI)(BX*1), Y8
	VBROADCASTSS (DX)(BX*1), Y9
	VMOVUPS      (R13), Y10
	VMOVUPS      32(R13), Y11
	VFMADD231PS  Y10, Y8, Y0
	VFMADD231PS  Y10, Y9, Y4
	VFMADD231PS  Y11, Y8, Y1
	VFMADD231PS  Y11, Y9, Y5
	VMOVUPS      64(R13), Y10
	VMOVUPS      96(R13), Y11
	VFMADD231PS  Y10, Y8, Y2
	VFMADD231PS  Y10, Y9, Y6
	VFMADD231PS  Y11, Y8, Y3
	VFMADD231PS  Y11, Y9, Y7
	ADDQ         R8, R13
	ADDQ         $4, BX
	JNZ          rf2quadk
	VMOVUPS      Y0, (R11)(AX*1)
	VMOVUPS      Y1, 32(R11)(AX*1)
	VMOVUPS      Y2, 64(R11)(AX*1)
	VMOVUPS      Y3, 96(R11)(AX*1)
	VMOVUPS      Y4, (R14)(AX*1)
	VMOVUPS      Y5, 32(R14)(AX*1)
	VMOVUPS      Y6, 64(R14)(AX*1)
	VMOVUPS      Y7, 96(R14)(AX*1)
	ADDQ         $128, AX
	JMP          rf2quad

rf2one:
	CMPQ   AX, R9
	JGE    rf2onetail
	VXORPS Y0, Y0, Y0
	VXORPS Y4, Y4, Y4
	MOVQ   CX, BX
	LEAQ   (SI)(AX*1), R13

rf2onek:
	VBROADCASTSS (DI)(BX*1), Y8
	VBROADCASTSS (DX)(BX*1), Y9
	VMOVUPS      (R13), Y10
	VFMADD231PS  Y10, Y8, Y0
	VFMADD231PS  Y10, Y9, Y4
	ADDQ         R8, R13
	ADDQ         $4, BX
	JNZ          rf2onek
	VMOVUPS      Y0, (R11)(AX*1)
	VMOVUPS      Y4, (R14)(AX*1)
	ADDQ         $32, AX
	JMP          rf2one

rf2onetail:
	CMPQ   AX, R8
	JGE    rf2act
	VXORPS Y0, Y0, Y0
	VXORPS Y4, Y4, Y4
	MOVQ   CX, BX
	LEAQ   (SI)(AX*1), R13

rf2onetailk:
	VBROADCASTSS (DI)(BX*1), Y8
	VBROADCASTSS (DX)(BX*1), Y9
	VMASKMOVPS   (R13), Y13, Y10
	VFMADD231PS  Y10, Y8, Y0
	VFMADD231PS  Y10, Y9, Y4
	ADDQ         R8, R13
	ADDQ         $4, BX
	JNZ          rf2onetailk
	VMOVUPS      Y0, (R11)(AX*1)
	VMOVUPS      Y4, (R14)(AX*1)

	// Pass 2: tanh, error and dpre, chunk by chunk, both rows at once.
rf2act:
	VBROADCASTSS c+56(FP), Y12
	VBROADCASTSS ex32<>+48(SB), Y10
	VBROADCASTSS ex32<>+44(SB), Y11
	VXORPS       Y14, Y14, Y14
	VXORPS       Y15, Y15, Y15
	XORQ         AX, AX
	TESTQ        R9, R9
	JZ           rf2acttail

rf2actloop:
	RECON2_HEAD
	RECON2_TAIL((R10)(AX*1), (R12)(AX*1))
	ADDQ $32, AX
	CMPQ AX, R9
	JLT  rf2actloop

rf2acttail:
	CMPQ       AX, R8
	JGE        rf2loss
	RECON2_HEAD
	VMASKMOVPS (R10)(AX*1), Y13, Y0
	VMASKMOVPS (R12)(AX*1), Y13, Y5
	RECON2_TAIL(Y0, Y5)

rf2loss:
	// Each row's lane sum ((l0+l4) + (l1+l5)) + ((l2+l6) + (l3+l7)).
	VEXTRACTF128 $1, Y14, X1
	VADDPS       X1, X14, X1
	VHADDPS      X1, X1, X1
	VHADDPS      X1, X1, X1
	VMOVSS       X1, suma+64(FP)
	VEXTRACTF128 $1, Y15, X1
	VADDPS       X1, X15, X1
	VHADDPS      X1, X1, X1
	VHADDPS      X1, X1, X1
	VMOVSS       X1, sumb+68(FP)
	VZEROUPPER
	RET

// func reconBack32x2(dhid, hid *float32, k int, w, dw *float32, n int, dpre *float32)
//
// Pass 3 for rows a and b = a+1 of hid and dhid. R12 points past a's k
// values of dhid; b's hid and dhid values are 4k past a's, at DI-CX and
// R12-CX. DX is dw, which R14 walks beside R13, and R10 is b's dpre.
TEXT ·reconBack32x2(SB), NOSPLIT, $0-56
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
	LEAQ 28(R8), R10
	ANDQ $-32, R10
	ADDQ R11, R10
	MOVQ CX, BX
	MOVQ SI, R13
	MOVQ DX, R14

rp32pair:
	CMPQ         BX, $-8
	JGT          rp32one
	VBROADCASTSS (DI)(BX*1), Y0
	VBROADCASTSS 4(DI)(BX*1), Y1
	MOVQ         DI, AX
	SUBQ         CX, AX
	VBROADCASTSS (AX)(BX*1), Y2
	VBROADCASTSS 4(AX)(BX*1), Y3
	VXORPS       Y4, Y4, Y4
	VXORPS       Y5, Y5, Y5
	VXORPS       Y6, Y6, Y6
	VXORPS       Y7, Y7, Y7
	XORQ         AX, AX
	TESTQ        R9, R9
	JZ           rp32pairtail

rp32paircol:
	VMOVUPS (R11)(AX*1), Y8
	VMOVUPS (R10)(AX*1), Y9
	BACK2_KK((R14), (R13), Y0, Y2, Y4, Y6)
	BACK2_KK((R14)(R8*1), (R13)(R8*1), Y1, Y3, Y5, Y7)
	ADDQ    $32, R13
	ADDQ    $32, R14
	ADDQ    $32, AX
	CMPQ    AX, R9
	JLT     rp32paircol

rp32pairtail:
	CMPQ    R9, R8
	JGE     rp32pairsum
	VMOVUPS (R11)(R9*1), Y8
	VMOVUPS (R10)(R9*1), Y9
	BACK2_KK_TAIL((R14), (R13), Y0, Y2, Y4, Y6)
	BACK2_KK_TAIL((R14)(R8*1), (R13)(R8*1), Y1, Y3, Y5, Y7)

rp32pairsum:
	// X9 = dhid_a[kk], dhid_a[kk+1], dhid_b[kk], dhid_b[kk+1].
	REDUCE4
	VMOVQ   X9, (R12)(BX*1)
	MOVQ    R12, AX
	SUBQ    CX, AX
	VPEXTRQ $1, X9, (AX)(BX*1)
	SUBQ    R9, R13
	SUBQ    R9, R14
	LEAQ    (R13)(R8*2), R13
	LEAQ    (R14)(R8*2), R14
	ADDQ    $8, BX
	JMP     rp32pair

rp32one:
	TESTQ        BX, BX
	JZ           rp32done
	VBROADCASTSS (DI)(BX*1), Y0
	MOVQ         DI, AX
	SUBQ         CX, AX
	VBROADCASTSS (AX)(BX*1), Y2
	VXORPS       Y4, Y4, Y4
	VXORPS       Y5, Y5, Y5
	VXORPS       Y6, Y6, Y6
	VXORPS       Y7, Y7, Y7
	XORQ         AX, AX
	TESTQ        R9, R9
	JZ           rp32onetail

rp32onecol:
	VMOVUPS (R11)(AX*1), Y8
	VMOVUPS (R10)(AX*1), Y9
	BACK2_KK((R14), (R13), Y0, Y2, Y4, Y6)
	ADDQ    $32, R13
	ADDQ    $32, R14
	ADDQ    $32, AX
	CMPQ    AX, R9
	JLT     rp32onecol

rp32onetail:
	CMPQ    R9, R8
	JGE     rp32onesum
	VMOVUPS (R11)(R9*1), Y8
	VMOVUPS (R10)(R9*1), Y9
	BACK2_KK_TAIL((R14), (R13), Y0, Y2, Y4, Y6)

rp32onesum:
	// k is odd: this was its last row of w. X9 = dhid_a[kk], 0,
	// dhid_b[kk], 0.
	REDUCE4
	VMOVSS  X9, (R12)(BX*1)
	MOVQ    R12, AX
	SUBQ    CX, AX
	VPEXTRD $2, X9, (AX)(BX*1)

rp32done:
	VZEROUPPER
	RET

// func reconPairs32(dhid, hid *float32, k int, w, dw *float32, n int, targets *float32, rows *int32, pairs int, dpre *float32, c float32) (sum float64)
//
// reconHeadAsm32's loop over rows in pairs: reconFront32x2 then
// reconBack32x2 on rows 2i and 2i+1 for i < pairs, their targets rows
// rows[2i] and rows[2i+1] of targets (n values each), and sum the pairs'
// results as float64s, row a's before row b's. The loop state lives in
// the arguments, which the calls leave alone. pairs must be >= 1.
TEXT ·reconPairs32(SB), $72-96
	XORPS X1, X1
	MOVSD X1, sum+88(FP)

rpairsloop:
	MOVQ    hid+8(FP), AX
	MOVQ    AX, 0(SP)
	MOVQ    k+16(FP), CX
	MOVQ    CX, 8(SP)
	MOVQ    w+24(FP), DX
	MOVQ    DX, 16(SP)
	MOVQ    n+40(FP), R8
	MOVQ    R8, 24(SP)
	SHLQ    $2, R8
	MOVQ    rows+56(FP), R9
	MOVLQSX 0(R9), R10
	IMULQ   R8, R10
	ADDQ    targets+48(FP), R10
	MOVQ    R10, 32(SP)
	MOVLQSX 4(R9), R10
	IMULQ   R8, R10
	ADDQ    targets+48(FP), R10
	MOVQ    R10, 40(SP)
	MOVQ    dpre+72(FP), R11
	MOVQ    R11, 48(SP)
	MOVL    c+80(FP), R12
	MOVL    R12, 56(SP)
	CALL    ·reconFront32x2(SB)
	MOVSD   sum+88(FP), X1
	MOVSS   64(SP), X0
	CVTSS2SD X0, X0
	ADDSD   X0, X1
	MOVSS   68(SP), X0
	CVTSS2SD X0, X0
	ADDSD   X0, X1
	MOVSD   X1, sum+88(FP)

	MOVQ dhid+0(FP), AX
	MOVQ AX, 0(SP)
	MOVQ hid+8(FP), AX
	MOVQ AX, 8(SP)
	MOVQ k+16(FP), CX
	MOVQ CX, 16(SP)
	MOVQ w+24(FP), DX
	MOVQ DX, 24(SP)
	MOVQ dw+32(FP), DX
	MOVQ DX, 32(SP)
	MOVQ n+40(FP), R8
	MOVQ R8, 40(SP)
	MOVQ dpre+72(FP), R11
	MOVQ R11, 48(SP)
	CALL ·reconBack32x2(SB)

	MOVQ k+16(FP), CX
	SHLQ $3, CX
	ADDQ CX, hid+8(FP)
	ADDQ CX, dhid+0(FP)
	ADDQ $8, rows+56(FP)
	DECQ pairs+64(FP)
	JNZ  rpairsloop
	RET

// func adamSweep32(w, g0, g1, st *float32, n int, c *AdamCoef)
//
// One Adam step over n weights, 8 lanes a step, with no fused
// multiply-add: every operation rounds as the plain loop of
// adamSweepPlain rounds it, so the two are bit-identical. The gradient
// is the shards' weighted sum times the clip factor, both gradients are
// zeroed as they are read, and the moments live in st as one chunk of
// 8 first moments then 8 second moments per 8 weights. n must be a
// positive multiple of 8.
TEXT ·adamSweep32(SB), NOSPLIT, $0-48
	MOVQ         w+0(FP), DI
	MOVQ         g0+8(FP), SI
	MOVQ         g1+16(FP), DX
	MOVQ         st+24(FP), R8
	MOVQ         n+32(FP), CX
	MOVQ         c+40(FP), AX
	VBROADCASTSS 0(AX), Y4
	VBROADCASTSS 4(AX), Y5
	VBROADCASTSS 8(AX), Y6
	VBROADCASTSS 12(AX), Y7
	VBROADCASTSS 16(AX), Y8
	VBROADCASTSS 20(AX), Y9
	VBROADCASTSS 24(AX), Y10
	VBROADCASTSS 28(AX), Y11
	VBROADCASTSS 32(AX), Y12
	VBROADCASTSS 36(AX), Y13
	VBROADCASTSS 40(AX), Y14
	VBROADCASTSS 44(AX), Y15
	XORQ         BX, BX

adamloop:
	// g = (w0*g0 + w1*g1) * scale
	VMULPS  (SI)(BX*4), Y4, Y0
	VMULPS  (DX)(BX*4), Y5, Y1
	VADDPS  Y1, Y0, Y0
	VMULPS  Y6, Y0, Y0

	// m = b1*m + (1-b1)*g
	VMULPS  (R8), Y7, Y1
	VMULPS  Y8, Y0, Y2
	VADDPS  Y2, Y1, Y1
	VMOVUPS Y1, (R8)

	// v = b2*v + (1-b2)*(g*g)
	VMULPS  Y0, Y0, Y0
	VMULPS  Y10, Y0, Y0
	VMULPS  32(R8), Y9, Y2
	VADDPS  Y0, Y2, Y2
	VMOVUPS Y2, 32(R8)

	// upd = (m/bc1) / (sqrt(v/bc2) + eps)
	VDIVPS  Y11, Y1, Y1
	VDIVPS  Y12, Y2, Y2
	VSQRTPS Y2, Y2
	VADDPS  Y13, Y2, Y2
	VDIVPS  Y2, Y1, Y1

	// w -= lr*(upd + wd*w)
	VMOVUPS (DI)(BX*4), Y0
	VMULPS  Y15, Y0, Y2
	VADDPS  Y2, Y1, Y1
	VMULPS  Y14, Y1, Y1
	VSUBPS  Y1, Y0, Y0
	VMOVUPS Y0, (DI)(BX*4)

	VXORPS  Y3, Y3, Y3
	VMOVUPS Y3, (SI)(BX*4)
	VMOVUPS Y3, (DX)(BX*4)
	ADDQ    $64, R8
	ADDQ    $8, BX
	CMPQ    BX, CX
	JLT     adamloop

	VZEROUPPER
	RET

// func vdropout32(y, slope, x *float32, words *uint64, n int, keepBelow uint32, a, ap, dropped float32)
//
// Alpha-dropout's training pass, 8 units a step: the 8 16-bit fields of
// two consecutive words, in memory order, are the units' draws; a unit
// is kept when its field is below keepBelow, its slope is a's bits where
// kept and +0 where dropped, and y = slope*(x - ap) + dropped with each
// operation rounded, as the scalar form computes it. n must be a
// positive multiple of 8.
TEXT ·vdropout32(SB), NOSPLIT, $0-56
	MOVQ         y+0(FP), DI
	MOVQ         slope+8(FP), SI
	MOVQ         x+16(FP), DX
	MOVQ         words+24(FP), R8
	MOVQ         n+32(FP), CX
	MOVL         keepBelow+40(FP), AX
	VMOVD        AX, X8
	VPBROADCASTD X8, Y8
	VBROADCASTSS a+44(FP), Y9
	VBROADCASTSS ap+48(FP), Y10
	VBROADCASTSS dropped+52(FP), Y11
	XORQ         BX, BX

vdropout32loop:
	VPMOVZXWD (R8), Y0
	VPCMPGTD  Y0, Y8, Y1
	VPAND     Y9, Y1, Y1
	VMOVUPS   Y1, (SI)(BX*4)
	VMOVUPS   (DX)(BX*4), Y2
	VSUBPS    Y10, Y2, Y2
	VMULPS    Y2, Y1, Y2
	VADDPS    Y11, Y2, Y2
	VMOVUPS   Y2, (DI)(BX*4)
	ADDQ      $16, R8
	ADDQ      $8, BX
	CMPQ      BX, CX
	JLT       vdropout32loop

	VZEROUPPER
	RET

// func vmul32(dst, a, b *float32, n int)
//
// dst[i] = a[i]*b[i], 8 lanes a step. n must be a positive multiple of 8.
TEXT ·vmul32(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), CX
	XORQ BX, BX

vmul32loop:
	VMOVUPS (SI)(BX*4), Y0
	VMULPS  (DX)(BX*4), Y0, Y0
	VMOVUPS Y0, (DI)(BX*4)
	ADDQ    $8, BX
	CMPQ    BX, CX
	JLT     vmul32loop

	VZEROUPPER
	RET

// func gatherRows32(dst, src *float32, rows *int32, n, c int)
//
// Row i of dst (rows of c floats, one after another) becomes row
// rows[i] of src, for i in [0,n), 8 floats a load. c must be a positive
// multiple of 8 and n >= 1.
TEXT ·gatherRows32(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ rows+16(FP), DX
	MOVQ n+24(FP), CX
	MOVQ c+32(FP), R8
	SHLQ $2, R8
	LEAQ (DX)(CX*4), CX

gatherrow:
	MOVLQSX (DX), AX
	IMULQ   R8, AX
	ADDQ    SI, AX
	XORQ    BX, BX

gathercol:
	VMOVUPS (AX)(BX*1), Y0
	VMOVUPS Y0, (DI)(BX*1)
	ADDQ    $32, BX
	CMPQ    BX, R8
	JLT     gathercol
	ADDQ    R8, DI
	ADDQ    $4, DX
	CMPQ    DX, CX
	JLT     gatherrow

	VZEROUPPER
	RET

// func scatterAddRows32(dst, src *float32, rows *int32, n, c int)
//
// Row rows[i] of dst gains row i of src (rows of c floats), for i in
// [0,n) in that order, 8 lanes an add. c must be a positive multiple of
// 8 and n >= 1.
TEXT ·scatterAddRows32(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ rows+16(FP), DX
	MOVQ n+24(FP), CX
	MOVQ c+32(FP), R8
	SHLQ $2, R8
	LEAQ (DX)(CX*4), CX

scatterrow:
	MOVLQSX (DX), AX
	IMULQ   R8, AX
	ADDQ    DI, AX
	XORQ    BX, BX

scattercol:
	VMOVUPS (AX)(BX*1), Y0
	VADDPS  (SI)(BX*1), Y0, Y0
	VMOVUPS Y0, (AX)(BX*1)
	ADDQ    $32, BX
	CMPQ    BX, R8
	JLT     scattercol
	ADDQ    R8, SI
	ADDQ    $4, DX
	CMPQ    DX, CX
	JLT     scatterrow

	VZEROUPPER
	RET

// The fused auto-encoder passes (ae32.go) read their constants from an
// aeCoef at AX, each over 8 lanes: keepBelow at 0, a at 32, ap at 64,
// dropped at 96, lambda at 128, lambdaAlpha at 160, +0 at 192 and -0 at
// 224, and the byte stride of aeEncodeBack32's extra rows at 256.
//
// AE_SELU2 sets Y1 = SELU(Y0) and Y8 = SELU(Y7) with vselu32's
// operations and operand order, so its bits: the two chains interleaved
// instruction by instruction as RECON2_HEAD interleaves its tanh, with
// EXPM1F's constants as exv operands. Y15 holds the expm1 clamp.
// Clobbers Y2-Y6 and Y9-Y12.
#define AE_SELU2 \
	VMULPS       128(AX), Y0, Y1; \
	VMULPS       128(AX), Y7, Y8; \
	VXORPS       Y2, Y2, Y2; \
	VXORPS       Y9, Y9, Y9; \
	VMINPS       Y0, Y2, Y2; \
	VMINPS       Y7, Y9, Y9; \
	VMAXPS       Y2, Y15, Y2; \
	VMAXPS       Y9, Y15, Y9; \
	VMOVUPS      exv<>+32(SB), Y3; \
	VMOVUPS      exv<>+32(SB), Y10; \
	VFMADD231PS  exv<>+64(SB), Y2, Y3; \
	VFMADD231PS  exv<>+64(SB), Y9, Y10; \
	VSUBPS       exv<>+32(SB), Y3, Y5; \
	VSUBPS       exv<>+32(SB), Y10, Y12; \
	VPSLLD       $23, Y3, Y3; \
	VPSLLD       $23, Y10, Y10; \
	VPADDD       exv<>+96(SB), Y3, Y3; \
	VPADDD       exv<>+96(SB), Y10, Y10; \
	VFNMADD231PS exv<>+128(SB), Y5, Y2; \
	VFNMADD231PS exv<>+128(SB), Y12, Y9; \
	VFNMADD231PS exv<>+160(SB), Y5, Y2; \
	VFNMADD231PS exv<>+160(SB), Y12, Y9; \
	VMOVUPS      exv<>+192(SB), Y4; \
	VMOVUPS      exv<>+192(SB), Y11; \
	VFMADD213PS  exv<>+224(SB), Y2, Y4; \
	VFMADD213PS  exv<>+224(SB), Y9, Y11; \
	VFMADD213PS  exv<>+256(SB), Y2, Y4; \
	VFMADD213PS  exv<>+256(SB), Y9, Y11; \
	VFMADD213PS  exv<>+288(SB), Y2, Y4; \
	VFMADD213PS  exv<>+288(SB), Y9, Y11; \
	VFMADD213PS  exv<>+320(SB), Y2, Y4; \
	VFMADD213PS  exv<>+320(SB), Y9, Y11; \
	VFMADD213PS  exv<>+352(SB), Y2, Y4; \
	VFMADD213PS  exv<>+352(SB), Y9, Y11; \
	VMULPS       Y2, Y4, Y4; \
	VMULPS       Y9, Y11, Y11; \
	VFMADD213PS  Y2, Y2, Y4; \
	VFMADD213PS  Y9, Y9, Y11; \
	VSUBPS       exv<>+96(SB), Y3, Y5; \
	VSUBPS       exv<>+96(SB), Y10, Y12; \
	VFMADD213PS  Y5, Y3, Y4; \
	VFMADD213PS  Y12, Y10, Y11; \
	VMULPS       160(AX), Y4, Y4; \
	VMULPS       160(AX), Y11, Y11; \
	VBLENDVPS    Y0, Y4, Y1, Y1; \
	VBLENDVPS    Y7, Y11, Y8, Y8

// AE_DROP(fields, keep, x, slope) is vdropout32's step on one row of 8
// units: slope = a where the unit's 16-bit field at fields is below
// keepBelow (in keep), +0 elsewhere, and x = slope*(x - ap) + dropped.
#define AE_DROP(fields, keep, x, slope) \
	VPMOVZXWD fields, slope; \
	VPCMPGTD  slope, keep, slope; \
	VPAND     32(AX), slope, slope; \
	VSUBPS    64(AX), x, x; \
	VMULPS    x, slope, x; \
	VADDPS    96(AX), x, x

// func aeEncode32(x2, slope, codes, hu *float32, rows *int32, words *uint64, wd *float32, n int, c *aeCoef)
//
// The encoder's per-occurrence forward pass. The first loop takes four
// rows a step: each row gathers its row of hu, drops units as vdropout32
// does (x2 and slope stored), and runs the 8→4 layer, whose 4-wide
// output sums over the 8 inputs in order, one FMA each, as sgemmRows4x4
// does; two rows share a register, the first in the low lane half, so
// wd holds each weight row twice over (8 rows of 8). The second loop
// applies SELU to the codes in place, 16 a step: run apart, neither
// loop's step waits on the other's long chain. n must be a positive
// multiple of 4.
TEXT ·aeEncode32(SB), NOSPLIT, $0-72
	MOVQ         x2+0(FP), DI
	MOVQ         slope+8(FP), SI
	MOVQ         codes+16(FP), DX
	MOVQ         hu+24(FP), R8
	MOVQ         rows+32(FP), R9
	MOVQ         words+40(FP), R10
	MOVQ         wd+48(FP), R11
	MOVQ         n+56(FP), CX
	MOVQ         c+64(FP), AX
	VBROADCASTSS ex32<>+44(SB), Y15
	MOVQ         DX, R12
	MOVQ         CX, R13

aeencloop:
	MOVLQSX 0(R9), BX
	SHLQ    $5, BX
	VMOVUPS (R8)(BX*1), Y0
	MOVLQSX 4(R9), BX
	SHLQ    $5, BX
	VMOVUPS (R8)(BX*1), Y1
	MOVLQSX 8(R9), BX
	SHLQ    $5, BX
	VMOVUPS (R8)(BX*1), Y2
	MOVLQSX 12(R9), BX
	SHLQ    $5, BX
	VMOVUPS (R8)(BX*1), Y3
	VMOVUPS 0(AX), Y13
	AE_DROP(0(R10), Y13, Y0, Y4)
	AE_DROP(16(R10), Y13, Y1, Y5)
	AE_DROP(32(R10), Y13, Y2, Y6)
	AE_DROP(48(R10), Y13, Y3, Y7)
	VMOVUPS Y4, 0(SI)
	VMOVUPS Y5, 32(SI)
	VMOVUPS Y6, 64(SI)
	VMOVUPS Y7, 96(SI)
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)

	VPERM2F128  $0x20, Y1, Y0, Y4
	VPERM2F128  $0x31, Y1, Y0, Y5
	VPERM2F128  $0x20, Y3, Y2, Y6
	VPERM2F128  $0x31, Y3, Y2, Y13
	VXORPS      Y0, Y0, Y0
	VXORPS      Y7, Y7, Y7
	VSHUFPS     $0x00, Y4, Y4, Y1
	VSHUFPS     $0x00, Y6, Y6, Y2
	VFMADD231PS 0(R11), Y1, Y0
	VFMADD231PS 0(R11), Y2, Y7
	VSHUFPS     $0x55, Y4, Y4, Y1
	VSHUFPS     $0x55, Y6, Y6, Y2
	VFMADD231PS 32(R11), Y1, Y0
	VFMADD231PS 32(R11), Y2, Y7
	VSHUFPS     $0xaa, Y4, Y4, Y1
	VSHUFPS     $0xaa, Y6, Y6, Y2
	VFMADD231PS 64(R11), Y1, Y0
	VFMADD231PS 64(R11), Y2, Y7
	VSHUFPS     $0xff, Y4, Y4, Y1
	VSHUFPS     $0xff, Y6, Y6, Y2
	VFMADD231PS 96(R11), Y1, Y0
	VFMADD231PS 96(R11), Y2, Y7
	VSHUFPS     $0x00, Y5, Y5, Y1
	VSHUFPS     $0x00, Y13, Y13, Y2
	VFMADD231PS 128(R11), Y1, Y0
	VFMADD231PS 128(R11), Y2, Y7
	VSHUFPS     $0x55, Y5, Y5, Y1
	VSHUFPS     $0x55, Y13, Y13, Y2
	VFMADD231PS 160(R11), Y1, Y0
	VFMADD231PS 160(R11), Y2, Y7
	VSHUFPS     $0xaa, Y5, Y5, Y1
	VSHUFPS     $0xaa, Y13, Y13, Y2
	VFMADD231PS 192(R11), Y1, Y0
	VFMADD231PS 192(R11), Y2, Y7
	VSHUFPS     $0xff, Y5, Y5, Y1
	VSHUFPS     $0xff, Y13, Y13, Y2
	VFMADD231PS 224(R11), Y1, Y0
	VFMADD231PS 224(R11), Y2, Y7
	VADDPS      192(AX), Y0, Y0
	VADDPS      192(AX), Y7, Y7
	VMOVUPS     Y0, 0(DX)
	VMOVUPS     Y7, 32(DX)

	ADDQ $128, DI
	ADDQ $128, SI
	ADDQ $64, DX
	ADDQ $16, R9
	ADDQ $64, R10
	SUBQ $4, CX
	JNZ  aeencloop

aeencselu:
	VMOVUPS 0(R12), Y0
	VMOVUPS 32(R12), Y7
	AE_SELU2
	VMOVUPS Y1, 0(R12)
	VMOVUPS Y8, 32(R12)
	ADDQ    $64, R12
	SUBQ    $4, R13
	JNZ     aeencselu
	VZEROUPPER
	RET

// func aeDecodeFront32(a1, slope, hid, codes *float32, words *uint64, w *float32, n int, c *aeCoef)
//
// The decoder's hidden layer. The first loop takes two rows a step and
// leaves code·w in a1 (w 4×8), its 8 outputs summed over the 4 code
// values in order, one FMA each, as sgemmRows4x8 does; the second, two
// rows a step too, applies SELU in place and then dropout as vdropout32
// does, storing slope and the dropped hid. n must be a positive even
// number.
TEXT ·aeDecodeFront32(SB), NOSPLIT, $0-64
	MOVQ         a1+0(FP), DI
	MOVQ         slope+8(FP), SI
	MOVQ         hid+16(FP), DX
	MOVQ         codes+24(FP), R8
	MOVQ         words+32(FP), R10
	MOVQ         w+40(FP), R11
	MOVQ         n+48(FP), CX
	MOVQ         c+56(FP), AX
	VBROADCASTSS ex32<>+44(SB), Y15
	VMOVUPS      0(R11), Y12
	VMOVUPS      32(R11), Y13
	VMOVUPS      64(R11), Y14
	MOVQ         DI, R12
	MOVQ         CX, R13

aedecfloop:
	VXORPS       Y0, Y0, Y0
	VXORPS       Y7, Y7, Y7
	VBROADCASTSS 0(R8), Y1
	VBROADCASTSS 16(R8), Y8
	VFMADD231PS  Y12, Y1, Y0
	VFMADD231PS  Y12, Y8, Y7
	VBROADCASTSS 4(R8), Y1
	VBROADCASTSS 20(R8), Y8
	VFMADD231PS  Y13, Y1, Y0
	VFMADD231PS  Y13, Y8, Y7
	VBROADCASTSS 8(R8), Y1
	VBROADCASTSS 24(R8), Y8
	VFMADD231PS  Y14, Y1, Y0
	VFMADD231PS  Y14, Y8, Y7
	VBROADCASTSS 12(R8), Y1
	VBROADCASTSS 28(R8), Y8
	VFMADD231PS  96(R11), Y1, Y0
	VFMADD231PS  96(R11), Y8, Y7
	VADDPS       192(AX), Y0, Y0
	VADDPS       192(AX), Y7, Y7
	VMOVUPS      Y0, 0(DI)
	VMOVUPS      Y7, 32(DI)
	ADDQ         $64, DI
	ADDQ         $32, R8
	SUBQ         $2, R13
	JNZ          aedecfloop

aedecfact:
	VMOVUPS 0(R12), Y0
	VMOVUPS 32(R12), Y7
	AE_SELU2
	VMOVUPS Y1, 0(R12)
	VMOVUPS Y8, 32(R12)
	VMOVUPS 0(AX), Y3
	AE_DROP(0(R10), Y3, Y1, Y2)
	AE_DROP(16(R10), Y3, Y8, Y9)
	VMOVUPS Y2, 0(SI)
	VMOVUPS Y9, 32(SI)
	VMOVUPS Y1, 0(DX)
	VMOVUPS Y8, 32(DX)
	ADDQ    $64, R12
	ADDQ    $64, SI
	ADDQ    $64, DX
	ADDQ    $32, R10
	SUBQ    $2, CX
	JNZ     aedecfact
	VZEROUPPER
	RET

// AE_DECB_ROW is the decoder hidden layer's backward step on one row:
// g = dhid*slope as vmul32 takes it, dpre = g*SELU'(a1) as vselugrad32
// takes it (stored over dhid), and dw's four accumulators Y12-Y15 each
// gain one FMA, as sgemmRows4x8 sums aᵀ·b. Y8-Y10 hold lambda,
// lambdaAlpha and +0.
#define AE_DECB_ROW \
	VMOVUPS      (SI), Y0; \
	VMULPS       (DX), Y0, Y0; \
	VMOVUPS      (R8), Y1; \
	VADDPS       Y9, Y1, Y2; \
	VCMPPS       $0x1e, Y10, Y1, Y3; \
	VBLENDVPS    Y3, Y8, Y2, Y2; \
	VMULPS       Y0, Y2, Y2; \
	VMOVUPS      Y2, (SI); \
	VBROADCASTSS 0(R9), Y3; \
	VFMADD231PS  Y3, Y2, Y12; \
	VBROADCASTSS 4(R9), Y4; \
	VFMADD231PS  Y4, Y2, Y13; \
	VBROADCASTSS 8(R9), Y5; \
	VFMADD231PS  Y5, Y2, Y14; \
	VBROADCASTSS 12(R9), Y6; \
	VFMADD231PS  Y6, Y2, Y15; \
	ADDQ         $32, SI; \
	ADDQ         $32, DX; \
	ADDQ         $32, R8; \
	ADDQ         $16, R9

// func aeDecodeBack32(dx, dhid, slope, a1, codes, wt, dw *float32, n, nx int, c *aeCoef)
//
// The decoder hidden layer's backward pass over n rows: AE_DECB_ROW on
// each, dw (4×8) gaining the sums once at the end, and for the first nx
// rows the code gradient dx = dpre·wᵀ, its 4 outputs summed over the 8
// units in order as sgemmRows4x4 does (wt is w transposed, 8 rows of 4).
// The other rows' dpre is left in dhid for the caller. n must be >= 1.
TEXT ·aeDecodeBack32(SB), NOSPLIT, $0-80
	MOVQ    dx+0(FP), DI
	MOVQ    dhid+8(FP), SI
	MOVQ    slope+16(FP), DX
	MOVQ    a1+24(FP), R8
	MOVQ    codes+32(FP), R9
	MOVQ    wt+40(FP), R11
	MOVQ    dw+48(FP), R12
	MOVQ    n+56(FP), CX
	MOVQ    nx+64(FP), R13
	MOVQ    c+72(FP), AX
	VMOVUPS 128(AX), Y8
	VMOVUPS 160(AX), Y9
	VXORPS  Y10, Y10, Y10
	VXORPS  Y12, Y12, Y12
	VXORPS  Y13, Y13, Y13
	VXORPS  Y14, Y14, Y14
	VXORPS  Y15, Y15, Y15
	SUBQ    R13, CX
	TESTQ   R13, R13
	JZ      aedecbtail

aedecbloop:
	AE_DECB_ROW
	VXORPS       X7, X7, X7
	VBROADCASTSS -32(SI), X1
	VFMADD231PS  0(R11), X1, X7
	VBROADCASTSS -28(SI), X1
	VFMADD231PS  16(R11), X1, X7
	VBROADCASTSS -24(SI), X1
	VFMADD231PS  32(R11), X1, X7
	VBROADCASTSS -20(SI), X1
	VFMADD231PS  48(R11), X1, X7
	VBROADCASTSS -16(SI), X1
	VFMADD231PS  64(R11), X1, X7
	VBROADCASTSS -12(SI), X1
	VFMADD231PS  80(R11), X1, X7
	VBROADCASTSS -8(SI), X1
	VFMADD231PS  96(R11), X1, X7
	VBROADCASTSS -4(SI), X1
	VFMADD231PS  112(R11), X1, X7
	VADDPS       X10, X7, X7
	VMOVUPS      X7, (DI)
	ADDQ         $16, DI
	DECQ         R13
	JNZ          aedecbloop

aedecbtail:
	TESTQ CX, CX
	JZ    aedecbdone

aedecbtloop:
	AE_DECB_ROW
	DECQ CX
	JNZ  aedecbtloop

aedecbdone:
	VADDPS  0(R12), Y12, Y12
	VMOVUPS Y12, 0(R12)
	VADDPS  32(R12), Y13, Y13
	VMOVUPS Y13, 32(R12)
	VADDPS  64(R12), Y14, Y14
	VMOVUPS Y14, 64(R12)
	VADDPS  96(R12), Y15, Y15
	VMOVUPS Y15, 96(R12)
	VZEROUPPER
	RET

// Index vectors of aeEncodeBack32's VPERMPS: unit 2j over the low lane
// half and unit 2j+1 over the high one, j = 0..3.
DATA aeidx<>+0(SB)/8, $0
DATA aeidx<>+8(SB)/8, $0
DATA aeidx<>+16(SB)/8, $0x0000000100000001
DATA aeidx<>+24(SB)/8, $0x0000000100000001
DATA aeidx<>+32(SB)/8, $0x0000000200000002
DATA aeidx<>+40(SB)/8, $0x0000000200000002
DATA aeidx<>+48(SB)/8, $0x0000000300000003
DATA aeidx<>+56(SB)/8, $0x0000000300000003
DATA aeidx<>+64(SB)/8, $0x0000000400000004
DATA aeidx<>+72(SB)/8, $0x0000000400000004
DATA aeidx<>+80(SB)/8, $0x0000000500000005
DATA aeidx<>+88(SB)/8, $0x0000000500000005
DATA aeidx<>+96(SB)/8, $0x0000000600000006
DATA aeidx<>+104(SB)/8, $0x0000000600000006
DATA aeidx<>+112(SB)/8, $0x0000000700000007
DATA aeidx<>+120(SB)/8, $0x0000000700000007
GLOBL aeidx<>(SB), RODATA|NOPTR, $128

// AE_ENCB_ROW is the encoder output layer's backward step on one row:
// its code gradient (dcodes plus the extra row at R14, as AddInPlaceF32
// adds them), dpre = that times SELU'(code) as vselugrad32 takes it
// (stored over dcodes), and dw's eight 4-wide accumulators, in pairs in
// Y12-Y15, each gaining one FMA with its input unit as sgemmRows4x4
// sums aᵀ·b. Y8-Y11 hold the aeidx vectors.
#define AE_ENCB_ROW \
	VMOVUPS     (SI), X0; \
	VADDPS      (R14), X0, X0; \
	VMOVUPS     (R8), X1; \
	VADDPS      160(AX), X1, X2; \
	VCMPPS      $0x1e, 192(AX), X1, X3; \
	VBLENDVPS   X3, 128(AX), X2, X2; \
	VMULPS      X0, X2, X2; \
	VMOVUPS     X2, (SI); \
	VINSERTF128 $1, X2, Y2, Y4; \
	VPERMPS     (R9), Y8, Y5; \
	VFMADD231PS Y5, Y4, Y12; \
	VPERMPS     (R9), Y9, Y6; \
	VFMADD231PS Y6, Y4, Y13; \
	VPERMPS     (R9), Y10, Y5; \
	VFMADD231PS Y5, Y4, Y14; \
	VPERMPS     (R9), Y11, Y6; \
	VFMADD231PS Y6, Y4, Y15

// func aeEncodeBack32(du, dcodes, extra, codes, x2, slope, wt, dw *float32, rows *int32, n, nx int, c *aeCoef)
//
// The encoder's per-occurrence backward pass over n rows: AE_ENCB_ROW
// on each, dw (8×4) gaining the sums once at the end, and for the first
// nx rows the unit gradient dx2 = dpre·wᵀ, its 8 outputs summed over the
// 4 code values in order as sgemmRows4x8 does (wt is w transposed, 4
// rows of 8), times the row's slope as vmul32 takes it, added onto row
// rows[i] of du as scatterAddRows32 adds it. extra advances by the
// stride in the coefficients: 16 bytes, or 0 over a row of -0, which
// changes no sum. The other rows' dpre is left in dcodes for the caller.
// n must be >= 1.
TEXT ·aeEncodeBack32(SB), NOSPLIT, $0-96
	MOVQ    du+0(FP), DI
	MOVQ    dcodes+8(FP), SI
	MOVQ    extra+16(FP), R14
	MOVQ    codes+24(FP), R8
	MOVQ    x2+32(FP), R9
	MOVQ    slope+40(FP), DX
	MOVQ    wt+48(FP), R11
	MOVQ    dw+56(FP), R12
	MOVQ    rows+64(FP), R10
	MOVQ    n+72(FP), CX
	MOVQ    nx+80(FP), R13
	MOVQ    c+88(FP), AX
	VMOVUPS aeidx<>+0(SB), Y8
	VMOVUPS aeidx<>+32(SB), Y9
	VMOVUPS aeidx<>+64(SB), Y10
	VMOVUPS aeidx<>+96(SB), Y11
	VXORPS  Y12, Y12, Y12
	VXORPS  Y13, Y13, Y13
	VXORPS  Y14, Y14, Y14
	VXORPS  Y15, Y15, Y15
	SUBQ    R13, CX
	TESTQ   R13, R13
	JZ      aeencbtail

aeencbloop:
	AE_ENCB_ROW
	VXORPS       Y7, Y7, Y7
	VBROADCASTSS 0(SI), Y1
	VFMADD231PS  0(R11), Y1, Y7
	VBROADCASTSS 4(SI), Y1
	VFMADD231PS  32(R11), Y1, Y7
	VBROADCASTSS 8(SI), Y1
	VFMADD231PS  64(R11), Y1, Y7
	VBROADCASTSS 12(SI), Y1
	VFMADD231PS  96(R11), Y1, Y7
	VADDPS       192(AX), Y7, Y7
	VMULPS       (DX), Y7, Y7
	MOVLQSX      (R10), BX
	SHLQ         $5, BX
	VADDPS       (DI)(BX*1), Y7, Y7
	VMOVUPS      Y7, (DI)(BX*1)
	ADDQ         $16, SI
	ADDQ         256(AX), R14
	ADDQ         $16, R8
	ADDQ         $32, R9
	ADDQ         $32, DX
	ADDQ         $4, R10
	DECQ         R13
	JNZ          aeencbloop

aeencbtail:
	TESTQ CX, CX
	JZ    aeencbdone

aeencbtloop:
	AE_ENCB_ROW
	ADDQ $16, SI
	ADDQ 256(AX), R14
	ADDQ $16, R8
	ADDQ $32, R9
	DECQ CX
	JNZ  aeencbtloop

aeencbdone:
	VADDPS  0(R12), Y12, Y12
	VMOVUPS Y12, 0(R12)
	VADDPS  32(R12), Y13, Y13
	VMOVUPS Y13, 32(R12)
	VADDPS  64(R12), Y14, Y14
	VMOVUPS Y14, 64(R12)
	VADDPS  96(R12), Y15, Y15
	VMOVUPS Y15, 96(R12)
	VZEROUPPER
	RET
