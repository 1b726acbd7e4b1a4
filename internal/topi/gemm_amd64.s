#include "textflag.h"

// The f32 register tiles for amd64, the quantized pair tile, the vector
// bodies of the float and the quantized depthwise row, of the pair widening
// and of the requantize epilogue. See gemm.go for the panel layouts and the
// multiply-then-add rule, conv.go for the depthwise rows, fused.go for the
// epilogue.

// The tiles. Each takes, for A, a table of the tile's four row runs per
// segment (conv_indirect.go): entry 4s+i is row i's run in segment s as an
// int32 element offset from the row origin a + 4·base, or zeroRun (−1) for
// the zero row, and every run is seg values long. Per segment the body
// turns the four entries into pointers once (ROWPTR: the origin plus the
// offset, or the zero row where the entry is negative), then runs the
// segment's seg steps — per step one load of each B panel's eight values,
// then per row a broadcast of its A value, a multiply and then an add: two
// roundings per step, as the Go tiles do, never an FMA — indexing each run
// by AX. The segments laid end to end are the tile's k, so B advances
// across them unbroken. With no segment, or empty ones, the accumulators
// stay zero. Nothing is bounds-checked: the table must have been prepared
// for a's shape. At the store the f32 tiles add the bias (bias == nil:
// none), then clamp: max(lo, v) then min(hi, ·), whose operand order keeps v
// wherever it is NaN or equal to the bound — clampF32's v < lo and v > hi.
//
// Every tile holds the row origin in R13 and the zero row in R14, the
// table in SI, its segment count in BX and the segment length in CX.

#define TABLE \
	MOVQ a_base+0(FP), R13      \
	MOVQ base+24(FP), AX        \
	LEAQ (R13)(AX*4), R13       \
	MOVQ zero_base+32(FP), R14  \
	MOVQ offs_base+56(FP), SI   \
	MOVQ offs_len+64(FP), BX    \
	SHRQ $2, BX                 \
	MOVQ seg+80(FP), CX         \
	MOVQ bp_base+88(FP), DX

// ROWPTR loads table entry d(SI) into r as the address of its run. LEAQ
// leaves the flags of TESTQ for CMOVQLT.
#define ROWPTR(d, r) \
	MOVLQSX d(SI), r      \
	TESTQ   r, r          \
	LEAQ    (R13)(r*4), r \
	CMOVQLT R14, r

// SEGMENT points R8..R11 at the four runs of the segment at SI and steps SI
// to the next one.
#define SEGMENT \
	ROWPTR(0, R8)  \
	ROWPTR(4, R9)  \
	ROWPTR(8, R10) \
	ROWPTR(12, R11) \
	ADDQ $16, SI   \
	XORQ AX, AX

// The quantized depthwise row over the raw 8-bit image (depthwiseRowQnn in
// conv.go). Per output pixel and block of channels the int32 sums stay in
// YMM registers across all of the pixel's taps, which it takes a pair at a
// time: TAPS points R8 and R9 at the two taps' channel vectors, and a
// block of eight channels then loads the two runs' raw bytes, interleaves
// them (VPUNPCKLBW: tap 2p in the low byte of each pair), widens the
// sixteen bytes to int16 (VPMOVZXBW for uint8, VPMOVSXBW for int8),
// subtracts the input zero point (VPSUBW against Y15) and multiplies the
// eight k-pairs against the tap pair's pair-major weights, adding each
// channel's two products (VPMADDWD), then accumulates (VPADDD). The values
// lie within ±255, so every step is exact and the wrapping int32 adds are
// the Go row's. The pixel's cells are stored once, after its last tap.
//
// Registers: R13 the pixel's input origin, R14 the zero row, DI the
// pixel's cells, R12 its column entry, SI its tap list and R10 the pair's
// entries within it, DX the pair's weights, R11 the weights' stride per
// tap pair (4c bytes), BX the block's first channel, CX the pairs left,
// AX the pixels left.

// TAPPTR loads table entry d(R10) into r as the address of its run: the
// origin plus the offset, or the zero row where the entry is negative.
#define TAPPTR(d, r) \
	MOVLQSX d(R10), r     \
	TESTQ   r, r          \
	LEAQ    (R13)(r*1), r \
	CMOVQLT R14, r

#define TAPS \
	TAPPTR(0, R8) \
	TAPPTR(4, R9) \
	ADDQ $8, R10

// DW16 accumulates sixteen channels from byte off of the two runs into lo
// (the first eight) and hi, against the weights at w0(DX) and w1(DX).
#define DW16(widen, off, w0, w1, lo, hi) \
	VMOVDQU    off(R8)(BX*1), X8  \
	VMOVDQU    off(R9)(BX*1), X9  \
	VPUNPCKHBW X9, X8, X10        \
	VPUNPCKLBW X9, X8, X8         \
	widen      X8, Y8             \
	widen      X10, Y10           \
	VPSUBW     Y15, Y8, Y8        \
	VPSUBW     Y15, Y10, Y10      \
	VPMADDWD   w0(DX), Y8, Y8     \
	VPMADDWD   w1(DX), Y10, Y10   \
	VPADDD     Y8, lo, lo         \
	VPADDD     Y10, hi, hi

// DW8 accumulates the eight channels at the two runs' BX into Y0.
#define DW8(widen) \
	VMOVQ      (R8)(BX*1), X8 \
	VMOVQ      (R9)(BX*1), X9 \
	VPUNPCKLBW X9, X8, X8     \
	widen      X8, Y8         \
	VPSUBW     Y15, Y8, Y8    \
	VPMADDWD   (DX), Y8, Y8   \
	VPADDD     Y8, Y0, Y0

// BLOCK starts a block of channels at BX, its accumulators cleared: the
// weights of its first tap pair, the pixel's first pair of entries and the
// pair count.
#define BLOCK \
	MOVQ wp+112(FP), DX   \
	LEAQ (DX)(BX*4), DX   \
	MOVQ SI, R10          \
	MOVQ taps+88(FP), CX  \
	SHRQ $1, CX

// PAIRNEXT steps to the next tap pair's weights and loops to l while
// pairs are left.
#define PAIRNEXT(l) \
	ADDQ R11, DX \
	DECQ CX      \
	JNZ  l

// LEFT sets CX to the channels left after BX.
#define LEFT \
	MOVQ n+96(FP), CX \
	SUBQ BX, CX

// DWROW is the whole row for one widening. Per pixel it takes blocks of 64
// channels (eight accumulators, Y0..Y7) while 64 are left — every channel
// of a layer up to 64 wide in registers across all of its taps — then at
// most one block each of 32, 16 and 8 channels.
#define DWROW(widen) \
	MOVQ         row+0(FP), DI         \
	MOVQ         img+8(FP), R13        \
	ADDQ         base+16(FP), R13      \
	MOVQ         zero+24(FP), R14      \
	MOVQ         cols_base+56(FP), R12 \
	MOVQ         cols_len+64(FP), AX   \
	MOVQ         c+104(FP), R11        \
	SHLQ         $2, R11               \
	MOVL         zp+120(FP), CX        \
	VMOVD        CX, X15               \
	VPBROADCASTW X15, Y15              \
	TESTQ        AX, AX                \
	JZ           done                  \
pixel:                                 \
	MOVLQSX (R12), SI                  \
	SHLQ    $2, SI                     \
	ADDQ    offs_base+32(FP), SI       \
	XORQ    BX, BX                     \
blk64:                                 \
	LEFT                               \
	CMPQ    CX, $64                    \
	JLT     blk32                      \
	VPXOR   Y0, Y0, Y0                 \
	VPXOR   Y1, Y1, Y1                 \
	VPXOR   Y2, Y2, Y2                 \
	VPXOR   Y3, Y3, Y3                 \
	VPXOR   Y4, Y4, Y4                 \
	VPXOR   Y5, Y5, Y5                 \
	VPXOR   Y6, Y6, Y6                 \
	VPXOR   Y7, Y7, Y7                 \
	BLOCK                              \
loop64:                                \
	TAPS                               \
	DW16(widen, 0, 0, 32, Y0, Y1)      \
	DW16(widen, 16, 64, 96, Y2, Y3)    \
	DW16(widen, 32, 128, 160, Y4, Y5)  \
	DW16(widen, 48, 192, 224, Y6, Y7)  \
	PAIRNEXT(loop64)                   \
	VMOVDQU Y0, (DI)(BX*4)             \
	VMOVDQU Y1, 32(DI)(BX*4)           \
	VMOVDQU Y2, 64(DI)(BX*4)           \
	VMOVDQU Y3, 96(DI)(BX*4)           \
	VMOVDQU Y4, 128(DI)(BX*4)          \
	VMOVDQU Y5, 160(DI)(BX*4)          \
	VMOVDQU Y6, 192(DI)(BX*4)          \
	VMOVDQU Y7, 224(DI)(BX*4)          \
	ADDQ    $64, BX                    \
	JMP     blk64                      \
blk32:                                 \
	CMPQ    CX, $32                    \
	JLT     blk16                      \
	VPXOR   Y0, Y0, Y0                 \
	VPXOR   Y1, Y1, Y1                 \
	VPXOR   Y2, Y2, Y2                 \
	VPXOR   Y3, Y3, Y3                 \
	BLOCK                              \
loop32:                                \
	TAPS                               \
	DW16(widen, 0, 0, 32, Y0, Y1)      \
	DW16(widen, 16, 64, 96, Y2, Y3)    \
	PAIRNEXT(loop32)                   \
	VMOVDQU Y0, (DI)(BX*4)             \
	VMOVDQU Y1, 32(DI)(BX*4)           \
	VMOVDQU Y2, 64(DI)(BX*4)           \
	VMOVDQU Y3, 96(DI)(BX*4)           \
	ADDQ    $32, BX                    \
	LEFT                               \
blk16:                                 \
	CMPQ    CX, $16                    \
	JLT     blk8                       \
	VPXOR   Y0, Y0, Y0                 \
	VPXOR   Y1, Y1, Y1                 \
	BLOCK                              \
loop16:                                \
	TAPS                               \
	DW16(widen, 0, 0, 32, Y0, Y1)      \
	PAIRNEXT(loop16)                   \
	VMOVDQU Y0, (DI)(BX*4)             \
	VMOVDQU Y1, 32(DI)(BX*4)           \
	ADDQ    $16, BX                    \
	LEFT                               \
blk8:                                  \
	CMPQ    CX, $8                     \
	JLT     next                       \
	VPXOR   Y0, Y0, Y0                 \
	BLOCK                              \
loop8:                                 \
	TAPS                               \
	DW8(widen)                         \
	PAIRNEXT(loop8)                    \
	VMOVDQU Y0, (DI)(BX*4)             \
next:                                  \
	ADDQ    step+80(FP), R13           \
	ADDQ    R11, DI                    \
	ADDQ    $4, R12                    \
	DECQ    AX                         \
	JNZ     pixel                      \
done:                                  \
	VZEROUPPER                         \
	RET

// WIDENPAIRS writes n raw values at src, n a positive multiple of 16,
// widened to int16 minus the zero point, to dst: an even-length vector's
// k-pairs, the even k in the low half (widenPairsVec).
#define WIDENPAIRS(widen) \
	MOVQ         dst+0(FP), DI \
	MOVQ         src+8(FP), SI \
	MOVQ         n+16(FP), CX  \
	SHRQ         $4, CX        \
	MOVL         zp+24(FP), AX \
	VMOVD        AX, X15       \
	VPBROADCASTW X15, Y15      \
wploop:                        \
	widen        (SI), Y0      \
	VPSUBW       Y15, Y0, Y0   \
	VMOVDQU      Y0, (DI)      \
	ADDQ         $16, SI       \
	ADDQ         $32, DI       \
	DECQ         CX            \
	JNZ          wploop        \
	VZEROUPPER                 \
	RET

#define IWROW(p, t0, t1, lo, hi) \
	VBROADCASTSS (p)(AX*4), t0 \
	VMULPS       Y8, t0, t1    \
	VMULPS       Y9, t0, t0    \
	VADDPS       t1, lo, lo    \
	VADDPS       t0, hi, hi

#define VCLAMP(v) \
	VMAXPS v, Y14, v \
	VMINPS v, Y15, v

// func gemmIndirectF32YMM(a []float32, base int, zero []float32, offs []int32, seg int, bp []float32, bias *[16]float32, lo, hi float32, acc *[64]float32)
//
// The 4×16 tile over two adjacent B panels (AVX1 only): bp holds two panels
// of 8k values, the second at bp[len(bp)/2:]. Y0..Y7 hold the tile: row i is
// Y(2i) (the first panel's eight columns) and Y(2i+1) (the second panel's).
// Per k step Y8 and Y9 take one k row of each panel, and IWROW broadcasts
// one A value, multiplies it against both and then adds. Eight independent
// accumulator chains cover VADDPS's latency where the 4×8 tile's four do
// not. Rows alternate their temporaries. Row i of the tile lands in
// acc[16i : 16i+16].
TEXT ·gemmIndirectF32YMM(SB), NOSPLIT, $0-136
	TABLE
	MOVQ   bp_len+96(FP), R12
	SHLQ   $1, R12             // half of bp, in bytes
	ADDQ   DX, R12             // second panel
	MOVQ   acc+128(FP), DI
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	TESTQ  BX, BX
	JZ     yistore
	TESTQ  CX, CX
	JZ     yistore

yiseg:
	SEGMENT

yiloop:
	VMOVUPS (DX), Y8
	VMOVUPS (R12), Y9
	IWROW(R8, Y10, Y11, Y0, Y1)
	IWROW(R9, Y12, Y13, Y2, Y3)
	IWROW(R10, Y14, Y15, Y4, Y5)
	IWROW(R11, Y10, Y11, Y6, Y7)
	ADDQ    $32, DX
	ADDQ    $32, R12
	INCQ    AX
	CMPQ    AX, CX
	JLT     yiloop
	DECQ    BX
	JNZ  yiseg

yistore:
	MOVQ    bias+112(FP), AX
	TESTQ   AX, AX
	JZ      yiclamp
	VMOVUPS (AX), Y8
	VMOVUPS 32(AX), Y9
	VADDPS  Y8, Y0, Y0
	VADDPS  Y9, Y1, Y1
	VADDPS  Y8, Y2, Y2
	VADDPS  Y9, Y3, Y3
	VADDPS  Y8, Y4, Y4
	VADDPS  Y9, Y5, Y5
	VADDPS  Y8, Y6, Y6
	VADDPS  Y9, Y7, Y7

yiclamp:
	VBROADCASTSS lo+120(FP), Y14
	VBROADCASTSS hi+124(FP), Y15
	VCLAMP(Y0)
	VCLAMP(Y1)
	VCLAMP(Y2)
	VCLAMP(Y3)
	VCLAMP(Y4)
	VCLAMP(Y5)
	VCLAMP(Y6)
	VCLAMP(Y7)
	VMOVUPS      Y0, (DI)
	VMOVUPS      Y1, 32(DI)
	VMOVUPS      Y2, 64(DI)
	VMOVUPS      Y3, 96(DI)
	VMOVUPS      Y4, 128(DI)
	VMOVUPS      Y5, 160(DI)
	VMOVUPS      Y6, 192(DI)
	VMOVUPS      Y7, 224(DI)
	VZEROUPPER
	RET

#define IVROW(p, tmp, acc) \
	VBROADCASTSS (p)(AX*4), tmp \
	VMULPS       Y4, tmp, tmp  \
	VADDPS       tmp, acc, acc

// func gemmIndirectF32AVX(a []float32, base int, zero []float32, offs []int32, seg int, bp []float32, bias *[16]float32, lo, hi float32, acc *[32]float32)
//
// The 4×8 tile at full YMM width (AVX1 only). Y0..Y3 hold the tile, one
// register per A row, one lane per output cell. Per k step Y4 takes the
// eight B values, and IVROW broadcasts one A value, multiplies and then
// adds; each row has its own temporary so the four multiplies are
// independent. bias is read for its first 8 values.
TEXT ·gemmIndirectF32AVX(SB), NOSPLIT, $0-136
	TABLE
	MOVQ   acc+128(FP), DI
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	TESTQ  BX, BX
	JZ     vistore
	TESTQ  CX, CX
	JZ     vistore

viseg:
	SEGMENT

viloop:
	VMOVUPS (DX), Y4
	IVROW(R8, Y5, Y0)
	IVROW(R9, Y6, Y1)
	IVROW(R10, Y7, Y2)
	IVROW(R11, Y8, Y3)
	ADDQ    $32, DX
	INCQ    AX
	CMPQ    AX, CX
	JLT     viloop
	DECQ    BX
	JNZ  viseg

vistore:
	MOVQ    bias+112(FP), AX
	TESTQ   AX, AX
	JZ      viclamp
	VMOVUPS (AX), Y4
	VADDPS  Y4, Y0, Y0
	VADDPS  Y4, Y1, Y1
	VADDPS  Y4, Y2, Y2
	VADDPS  Y4, Y3, Y3

viclamp:
	VBROADCASTSS lo+120(FP), Y14
	VBROADCASTSS hi+124(FP), Y15
	VCLAMP(Y0)
	VCLAMP(Y1)
	VCLAMP(Y2)
	VCLAMP(Y3)
	VMOVUPS      Y0, (DI)
	VMOVUPS      Y1, 32(DI)
	VMOVUPS      Y2, 64(DI)
	VMOVUPS      Y3, 96(DI)
	VZEROUPPER
	RET

#define SIROW(p, lo, hi) \
	MOVSS  (p)(AX*4), X10 \
	SHUFPS $0, X10, X10   \
	MOVAPS X10, X11       \
	MULPS  X8, X10        \
	MULPS  X9, X11        \
	ADDPS  X10, lo        \
	ADDPS  X11, hi

#define SCLAMP(v) \
	MOVAPS X8, X10 \
	MAXPS  v, X10  \
	MOVAPS X9, v   \
	MINPS  X10, v

// func gemmIndirectF32SSE2(a []float32, base int, zero []float32, offs []int32, seg int, bp []float32, bias *[16]float32, lo, hi float32, acc *[32]float32)
//
// The 4×8 tile on the architecture's baseline. X0..X7 hold the tile: row i
// is X(2i) (columns 0–3) and X(2i+1) (columns 4–7). Per k step X8/X9 take
// the eight B values and SIROW broadcasts one A value into X10/X11,
// multiplies and then adds. bias is read for its first 8 values.
TEXT ·gemmIndirectF32SSE2(SB), NOSPLIT, $0-136
	TABLE
	MOVQ  acc+128(FP), DI
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORPS X4, X4
	XORPS X5, X5
	XORPS X6, X6
	XORPS X7, X7
	TESTQ BX, BX
	JZ    sistore
	TESTQ CX, CX
	JZ    sistore

siseg:
	SEGMENT

siloop:
	MOVUPS (DX), X8
	MOVUPS 16(DX), X9
	SIROW(R8, X0, X1)
	SIROW(R9, X2, X3)
	SIROW(R10, X4, X5)
	SIROW(R11, X6, X7)
	ADDQ   $32, DX
	INCQ   AX
	CMPQ   AX, CX
	JLT    siloop
	DECQ   BX
	JNZ  siseg

sistore:
	MOVQ   bias+112(FP), AX
	TESTQ  AX, AX
	JZ     siclamp
	MOVUPS (AX), X8
	MOVUPS 16(AX), X9
	ADDPS  X8, X0
	ADDPS  X9, X1
	ADDPS  X8, X2
	ADDPS  X9, X3
	ADDPS  X8, X4
	ADDPS  X9, X5
	ADDPS  X8, X6
	ADDPS  X9, X7

siclamp:
	MOVSS  lo+120(FP), X8
	SHUFPS $0, X8, X8
	MOVSS  hi+124(FP), X9
	SHUFPS $0, X9, X9
	SCLAMP(X0)
	SCLAMP(X1)
	SCLAMP(X2)
	SCLAMP(X3)
	SCLAMP(X4)
	SCLAMP(X5)
	SCLAMP(X6)
	SCLAMP(X7)
	MOVUPS X0, (DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, 32(DI)
	MOVUPS X3, 48(DI)
	MOVUPS X4, 64(DI)
	MOVUPS X5, 80(DI)
	MOVUPS X6, 96(DI)
	MOVUPS X7, 112(DI)
	RET

#define IIROW(p, lo, hi) \
	MOVSS   (p)(AX*4), X11 \
	PSHUFD  $0, X11, X11   \
	MOVO    X11, X12       \
	PMADDWL X9, X11        \
	PMADDWL X10, X12       \
	PADDL   X11, lo        \
	PADDL   X12, hi

// func gemmIndirectI16SSE2(a []i16x2, base int, zero []i16x2, offs []int32, seg int, bp []i16x2, acc *[32]int32)
//
// The quantized tile over a table of k-pair runs: int16 k-pairs in, int32
// sums out. X0..X7 hold the 4×8 tile of int32 sums as the SSE2 f32 tile
// holds its floats: row i is X(2i) (columns 0–3) and X(2i+1) (columns 4–7).
// Per k-pair X9/X10 take the eight columns' pairs, and IIROW loads one row's
// pair (MOVSS), broadcasts it to every lane (PSHUFD), multiplies it against
// both column vectors and adds each lane's two products (PMADDWD, PMADDWL
// to the Go assembler), then accumulates (PADDD, PADDL). The operands are
// (raw − zp) of 8-bit data, within ±255, so a pair sum fits int32 and the
// wrapping int32 adds are the Go tile's.
TEXT ·gemmIndirectI16SSE2(SB), NOSPLIT, $0-120
	TABLE
	MOVQ  acc+112(FP), DI
	PXOR  X0, X0
	PXOR  X1, X1
	PXOR  X2, X2
	PXOR  X3, X3
	PXOR  X4, X4
	PXOR  X5, X5
	PXOR  X6, X6
	PXOR  X7, X7
	TESTQ BX, BX
	JZ    iistore
	TESTQ CX, CX
	JZ    iistore

iiseg:
	SEGMENT

iiloop:
	MOVOU (DX), X9
	MOVOU 16(DX), X10
	IIROW(R8, X0, X1)
	IIROW(R9, X2, X3)
	IIROW(R10, X4, X5)
	IIROW(R11, X6, X7)
	ADDQ  $32, DX
	INCQ  AX
	CMPQ  AX, CX
	JLT   iiloop
	DECQ  BX
	JNZ  iiseg

iistore:
	MOVOU X0, (DI)
	MOVOU X1, 16(DI)
	MOVOU X2, 32(DI)
	MOVOU X3, 48(DI)
	MOVOU X4, 64(DI)
	MOVOU X5, 80(DI)
	MOVOU X6, 96(DI)
	MOVOU X7, 112(DI)
	RET

// func mulAddRowF32AVX2(out, x, k unsafe.Pointer, n int)
//
// out[o] += x[o]·k[o] for o < n, n a positive multiple of 8: per eight
// channels one VMULPS and then one VADDPS, each rounded — the Go loop's two
// roundings. No FMA.
TEXT ·mulAddRowF32AVX2(SB), NOSPLIT, $0-32
	MOVQ out+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ k+16(FP), DX
	MOVQ n+24(FP), CX
	SHRQ $3, CX

floop:
	VMOVUPS (SI), Y0
	VMULPS  (DX), Y0, Y0
	VADDPS  (DI), Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI
	DECQ    CX
	JNZ     floop
	VZEROUPPER
	RET

// The quantized depthwise row and the pair widening; their bodies are the
// macros DWROW and WIDENPAIRS above, one TEXT per 8-bit type.

// func depthwiseRowU8AVX2(row, img unsafe.Pointer, base int, zero unsafe.Pointer, offs, cols []int32, step, taps, n, c int, wp unsafe.Pointer, zp int32)
TEXT ·depthwiseRowU8AVX2(SB), NOSPLIT, $0-124
	DWROW(VPMOVZXBW)

// func depthwiseRowI8AVX2(row, img unsafe.Pointer, base int, zero unsafe.Pointer, offs, cols []int32, step, taps, n, c int, wp unsafe.Pointer, zp int32)
TEXT ·depthwiseRowI8AVX2(SB), NOSPLIT, $0-124
	DWROW(VPMOVSXBW)

// func widenPairsU8AVX2(dst, src unsafe.Pointer, n int, zp int32)
TEXT ·widenPairsU8AVX2(SB), NOSPLIT, $0-28
	WIDENPAIRS(VPMOVZXBW)

// func widenPairsI8AVX2(dst, src unsafe.Pointer, n int, zp int32)
TEXT ·widenPairsI8AVX2(SB), NOSPLIT, $0-28
	WIDENPAIRS(VPMOVSXBW)

// func requantAVX2(d, a, tile unsafe.Pointer, n, tileLen int, ratio float64, inZp, outZp, lo, hi int32)
//
// requantRow eight values at a time: d[i] = clamp(requantize(a[i] +
// tile[i % tileLen])) to [lo, hi], n and tileLen positive multiples of 8.
// Per eight values: VPADDD adds the bias and VPSUBD takes the input zero
// point, both wrapping as Go's int32 does; VCVTDQ2PD widens each half
// exactly and VMULPD scales it by ratio; the sign bit (AND with Y10) OR 0.5
// (Y9) is copysign(0.5, x), added by VADDPD; VCVTTPD2DQ truncates, giving
// 0x80000000 for a value outside int32 as CVTTSD2SL does for Go's int32();
// VPADDD adds the output zero point and VPMAXSD/VPMINSD clamp — the same
// steps, in the same order, as requantize. [lo, hi] lies inside the 8-bit
// output dtype's range, so VPACKSSDW to int16 and VPSHUFB of each int16's
// low byte (X8) narrow without saturating, and one body serves uint8 and
// int8. The tile pointer returns to the tile's start (R9) at its end (R8).
// Every instruction is VEX-encoded (make no-fma checks): a legacy-SSE
// MOVQ store in the loop made it ≈ 1.1× slower.
TEXT ·requantAVX2(SB), NOSPLIT, $0-64
	MOVQ         d+0(FP), DI
	MOVQ         a+8(FP), SI
	MOVQ         tile+16(FP), BX
	MOVQ         n+24(FP), CX
	MOVQ         tileLen+32(FP), R8
	SHLQ         $2, R8
	ADDQ         BX, R8
	MOVQ         BX, R9
	SHRQ         $3, CX
	VBROADCASTSD ratio+40(FP), Y14
	MOVL         inZp+48(FP), AX
	VMOVD        AX, X15
	VPBROADCASTD X15, Y15
	MOVL         outZp+52(FP), AX
	VMOVD        AX, X11
	VPBROADCASTD X11, X11
	MOVL         lo+56(FP), AX
	VMOVD        AX, X12
	VPBROADCASTD X12, X12
	MOVL         hi+60(FP), AX
	VMOVD        AX, X13
	VPBROADCASTD X13, X13
	VPCMPEQQ     Y10, Y10, Y10
	VPSLLQ       $63, Y10, Y10
	MOVQ         $0x3FE0000000000000, AX
	VMOVQ        AX, X9
	VPBROADCASTQ X9, Y9
	MOVQ         $0x0E0C0A0806040200, AX
	VMOVQ        AX, X8

rqloop:
	VMOVDQU      (SI), Y0
	VPADDD       (BX), Y0, Y0
	VPSUBD       Y15, Y0, Y0
	VCVTDQ2PD    X0, Y1
	VEXTRACTI128 $1, Y0, X2
	VCVTDQ2PD    X2, Y2
	VMULPD       Y14, Y1, Y1
	VMULPD       Y14, Y2, Y2
	VANDPD       Y10, Y1, Y3
	VANDPD       Y10, Y2, Y4
	VORPD        Y9, Y3, Y3
	VORPD        Y9, Y4, Y4
	VADDPD       Y3, Y1, Y1
	VADDPD       Y4, Y2, Y2
	VCVTTPD2DQY  Y1, X1
	VCVTTPD2DQY  Y2, X2
	VPADDD       X11, X1, X1
	VPADDD       X11, X2, X2
	VPMAXSD      X12, X1, X1
	VPMAXSD      X12, X2, X2
	VPMINSD      X13, X1, X1
	VPMINSD      X13, X2, X2
	VPACKSSDW    X2, X1, X1
	VPSHUFB      X8, X1, X1
	VMOVQ        X1, (DI)
	ADDQ         $8, DI
	ADDQ         $32, SI
	ADDQ         $32, BX
	CMPQ         BX, R8
	CMOVQEQ      R9, BX
	DECQ         CX
	JNZ          rqloop
	VZEROUPPER
	RET
