#include "textflag.h"

// The f32 register tile for amd64, SSE2 only (the architecture's baseline).
// See gemm.go for the panel layout and the multiply-then-add rule.
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

// func gemmMicroF32(ap, bp []float32, acc *[32]float32)
//
// k = len(ap)/4; bp must hold at least 8k values. With k == 0 neither panel
// is read and acc is zeroed.
TEXT ·gemmMicroF32(SB), NOSPLIT, $0-56
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
