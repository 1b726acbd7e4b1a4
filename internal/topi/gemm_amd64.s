#include "textflag.h"

// The f32 register tiles for amd64 and the feature test that picks one, and
// the quantized pair tile. See gemm.go for the panel layouts and the
// multiply-then-add rule.

// func cpuHasAVX() bool
//
// CPUID leaf 1 ECX bit 27 (OSXSAVE: XGETBV is usable) and bit 28 (AVX), then
// XCR0 bits 1 and 2: the OS saves both XMM and YMM state across a context
// switch.
TEXT ·cpuHasAVX(SB), NOSPLIT, $0-1
	MOVL   $1, AX
	XORL   CX, CX
	CPUID
	ANDL   $0x18000000, CX
	CMPL   CX, $0x18000000
	JNE    no
	XORL   CX, CX
	XGETBV
	ANDL   $6, AX
	CMPL   AX, $6
	JNE    no
	MOVB   $1, ret+0(FP)
	RET
no:
	MOVB   $0, ret+0(FP)
	RET

// gemmMicroF32SSE2 is the tile on the architecture's baseline.
//
// X0..X7 hold the 4×8 tile: row i is X(2i) (columns 0–3) and X(2i+1)
// (columns 4–7). Per k step X8/X9 take the eight B values and ROW broadcasts
// one A value into X10/X11, multiplies and then adds — two roundings per
// step, as the Go kernels do. No FMA.

#define ROW(off, lo, hi) \
	MOVSS  off(SI), X10 \
	SHUFPS $0, X10, X10 \
	MOVAPS X10, X11     \
	MULPS  X8, X10      \
	MULPS  X9, X11      \
	ADDPS  X10, lo      \
	ADDPS  X11, hi

// func gemmMicroF32SSE2(ap, bp []float32, acc *[32]float32)
//
// k = len(ap)/4; bp must hold at least 8k values. With k == 0 neither panel
// is read and acc is zeroed.
TEXT ·gemmMicroF32SSE2(SB), NOSPLIT, $0-56
	MOVQ  ap_base+0(FP), SI
	MOVQ  ap_len+8(FP), CX
	MOVQ  bp_base+24(FP), DX
	MOVQ  acc+48(FP), DI
	SHRQ  $2, CX
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORPS X4, X4
	XORPS X5, X5
	XORPS X6, X6
	XORPS X7, X7
	TESTQ CX, CX
	JZ    store

loop:
	MOVUPS (DX), X8
	MOVUPS 16(DX), X9
	ROW(0, X0, X1)
	ROW(4, X2, X3)
	ROW(8, X4, X5)
	ROW(12, X6, X7)
	ADDQ   $16, SI
	ADDQ   $32, DX
	DECQ   CX
	JNZ    loop

store:
	MOVUPS X0, (DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, 32(DI)
	MOVUPS X3, 48(DI)
	MOVUPS X4, 64(DI)
	MOVUPS X5, 80(DI)
	MOVUPS X6, 96(DI)
	MOVUPS X7, 112(DI)
	RET

// gemmMicroF32AVX is the same tile at full YMM width (AVX1 only).
//
// Y0..Y3 hold the 4×8 tile, one register per A row, one lane per output
// cell. Per k step Y4 takes the eight B values, and VROW broadcasts one A
// value, multiplies and then adds — two roundings per step, the same
// operations in the same order as the SSE2 tile. No FMA. Each row has its own
// temporary so the four multiplies are independent.

#define VROW(off, tmp, acc) \
	VBROADCASTSS off(SI), tmp \
	VMULPS       Y4, tmp, tmp \
	VADDPS       tmp, acc, acc

// func gemmMicroF32AVX(ap, bp []float32, acc *[32]float32)
//
// Same contract as gemmMicroF32SSE2.
TEXT ·gemmMicroF32AVX(SB), NOSPLIT, $0-56
	MOVQ   ap_base+0(FP), SI
	MOVQ   ap_len+8(FP), CX
	MOVQ   bp_base+24(FP), DX
	MOVQ   acc+48(FP), DI
	SHRQ   $2, CX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	TESTQ  CX, CX
	JZ     vstore

vloop:
	VMOVUPS (DX), Y4
	VROW(0, Y5, Y0)
	VROW(4, Y6, Y1)
	VROW(8, Y7, Y2)
	VROW(12, Y8, Y3)
	ADDQ    $16, SI
	ADDQ    $32, DX
	DECQ    CX
	JNZ     vloop

vstore:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VZEROUPPER
	RET

// gemmMicroI16SSE2 is the quantized tile: int16 k-pairs in, int32 sums out.
//
// X0..X7 hold the 4×8 tile of int32 sums as the SSE2 f32 tile holds its
// floats: row i is X(2i) (columns 0–3) and X(2i+1) (columns 4–7). Per k-pair
// X8 takes the four rows' pairs, X9/X10 the eight columns' pairs, and IROW
// broadcasts row sel's pair to every lane (PSHUFD), multiplies it against
// both column vectors and adds each lane's two products (PMADDWD, PMADDWL to
// the Go assembler), then accumulates (PADDD, PADDL). The operands are
// (raw − zp) of 8-bit data, within ±255, so a pair sum fits int32 and the
// wrapping int32 adds are the Go tile's.

#define IROW(sel, lo, hi) \
	PSHUFD  $sel, X8, X11 \
	MOVO    X11, X12      \
	PMADDWL X9, X11       \
	PMADDWL X10, X12      \
	PADDL   X11, lo       \
	PADDL   X12, hi

// func gemmMicroI16SSE2(ap, bp []i16x2, acc *[32]int32)
//
// kp = len(ap)/4 k-pairs; bp must hold at least 8kp pairs. With kp == 0
// neither panel is read and acc is zeroed.
TEXT ·gemmMicroI16SSE2(SB), NOSPLIT, $0-56
	MOVQ  ap_base+0(FP), SI
	MOVQ  ap_len+8(FP), CX
	MOVQ  bp_base+24(FP), DX
	MOVQ  acc+48(FP), DI
	SHRQ  $2, CX
	PXOR  X0, X0
	PXOR  X1, X1
	PXOR  X2, X2
	PXOR  X3, X3
	PXOR  X4, X4
	PXOR  X5, X5
	PXOR  X6, X6
	PXOR  X7, X7
	TESTQ CX, CX
	JZ    istore

iloop:
	MOVOU (SI), X8
	MOVOU (DX), X9
	MOVOU 16(DX), X10
	IROW(0x00, X0, X1)
	IROW(0x55, X2, X3)
	IROW(0xAA, X4, X5)
	IROW(0xFF, X6, X7)
	ADDQ  $16, SI
	ADDQ  $32, DX
	DECQ  CX
	JNZ   iloop

istore:
	MOVOU X0, (DI)
	MOVOU X1, 16(DI)
	MOVOU X2, 32(DI)
	MOVOU X3, 48(DI)
	MOVOU X4, 64(DI)
	MOVOU X5, 80(DI)
	MOVOU X6, 96(DI)
	MOVOU X7, 112(DI)
	RET
