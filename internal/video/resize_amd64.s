#include "textflag.h"

// func blendAVX(out, a0, b0, a1, b1 unsafe.Pointer, n int, wy0, wy1 float64)
//
// The vertical pass of the resize (blendRows), four lanes at a time:
// out[j] = float32(a0[j]·wy0 + b0[j]·wy0 + a1[j]·wy1 + b1[j]·wy1). Each
// product is one VMULPD and the sum is three VADDPDs, left to right, as the
// Go loop rounds it; VCVTPD2PS rounds to float32 under the default
// round-to-nearest mode, as Go's float32() conversion does. No FMA.
TEXT ·blendAVX(SB), NOSPLIT, $0-64
	MOVQ         out+0(FP), DI
	MOVQ         a0+8(FP), AX
	MOVQ         b0+16(FP), BX
	MOVQ         a1+24(FP), CX
	MOVQ         b1+32(FP), DX
	MOVQ         n+40(FP), SI
	SHRQ         $2, SI
	VBROADCASTSD wy0+48(FP), Y14
	VBROADCASTSD wy1+56(FP), Y15

bloop:
	VMOVUPD     (AX), Y0
	VMULPD      Y14, Y0, Y0
	VMOVUPD     (BX), Y1
	VMULPD      Y14, Y1, Y1
	VMOVUPD     (CX), Y2
	VMULPD      Y15, Y2, Y2
	VMOVUPD     (DX), Y3
	VMULPD      Y15, Y3, Y3
	VADDPD      Y1, Y0, Y0
	VADDPD      Y2, Y0, Y0
	VADDPD      Y3, Y0, Y0
	VCVTPD2PSY  Y0, X0
	VMOVUPS     X0, (DI)
	ADDQ        $32, AX
	ADDQ        $32, BX
	ADDQ        $32, CX
	ADDQ        $32, DX
	ADDQ        $16, DI
	DECQ        SI
	JNZ         bloop
	VZEROUPPER
	RET

// func rowProductsAVX(a, b, row, cols unsafe.Pointer, n int)
//
// The horizontal pass of the resize (rowProducts) for n output columns:
// per column tap (off0, off1, fx) at cols, a gets p0·(1−fx) and b gets
// p1·fx for the three channels p0 and p1 of the tap's two source pixels in
// row. VCVTPS2PD widens channels 0 and 1 exactly, VCVTSS2SD channel 2, and
// one VMULPD and one VMULSD round each product as the Go loop's MULSD does;
// 1−fx is the same VSUBSD. The scalar conversion merges into X15, a
// constant, so no iteration waits on the one before.
TEXT ·rowProductsAVX(SB), NOSPLIT, $0-40
	MOVQ      a+0(FP), DI
	MOVQ      b+8(FP), DX
	MOVQ      row+16(FP), SI
	MOVQ      cols+24(FP), CX
	MOVQ      n+32(FP), BX
	MOVQ      $0x3FF0000000000000, AX
	VMOVQ     AX, X15

hloop:
	MOVQ      0(CX), R8
	MOVQ      8(CX), R9
	VMOVSD    16(CX), X14
	VSUBSD    X14, X15, X13
	VMOVDDUP  X13, X13
	VMOVDDUP  X14, X14
	VCVTPS2PD (SI)(R8*4), X0
	VCVTSS2SD 8(SI)(R8*4), X15, X1
	VMULPD    X13, X0, X0
	VMULSD    X13, X1, X1
	VMOVUPD   X0, (DI)
	VMOVSD    X1, 16(DI)
	VCVTPS2PD (SI)(R9*4), X2
	VCVTSS2SD 8(SI)(R9*4), X15, X3
	VMULPD    X14, X2, X2
	VMULSD    X14, X3, X3
	VMOVUPD   X2, (DX)
	VMOVSD    X3, 16(DX)
	ADDQ      $24, CX
	ADDQ      $24, DI
	ADDQ      $24, DX
	DECQ      BX
	JNZ       hloop
	RET
