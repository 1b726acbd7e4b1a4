package topi

import (
	"fmt"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Cache-blocked, register-tiled GEMM backing the im2col convolution and
// dense/matmul paths. The computation is C[i][j] = Σ_k A[i][k]·B[j][k]
// (B holds filter rows, so the reduction runs over two row-major operands
// with contiguous K) — exactly the shape im2col produces.
//
// Blocking scheme:
//
//   - Both operands are repacked into register-tile panels (packPanels,
//     generic over the panel element): A into gemmMR-row panels interleaved
//     by k (panel layout ap[(it·k+kk)·MR+i]), B into NR-row panels
//     (bp[(jt·k+kk)·NR+j]). On the im2col path packCol writes A in that
//     layout straight from the image. The micro-kernel then reads both operands
//     as two forward streams, which removes all index arithmetic and bounds
//     checks from the inner loop. The panel layout is the same on every
//     architecture and is never serialized.
//   - A float panel element is one float32. A quantized one is an i16x2: one
//     k-pair of (raw − zero point) values as two int16, so the same layout
//     over pairs holds, per k-pair, an A panel's 4 rows × 2 k and a B
//     panel's 8 columns × 2 k. The reduction runs over pairs; a vector of odd
//     length (a filter tap's channels, a dense row) is padded with a zero
//     (rawMinusZpPairs).
//   - The micro-kernel keeps a full MR×NR accumulator tile and runs the K
//     loop unblocked. Each output cell owns exactly one accumulator that
//     sums k in ascending order, each step one multiply rounded to float32
//     and then one add rounded to float32, so the result is bit-identical to
//     the naive single-accumulator dot product — the property the GEMM
//     equivalence tests pin (gemm_test.go).
//   - Weight panels are immutable per model, so they are packed once per
//     weight tensor (packedWeight, one generic type for both element types)
//     and stored on that tensor (Tensor.SetDerived): steady-state inference
//     repacks only the activation side, and the panels go when the weight
//     does.
//
// Tile shapes. Every f32 tile is 4 A rows by one or more whole adjacent
// B panels of gemmNR = 8 columns, over the same panel layout: panel jt+1
// starts where panel jt ends, so a tile that spans p panels reads p forward
// streams of B. Every tile vectorises across N — one lane per output cell,
// every cell's reduction serial in k — which is what makes a vector tile,
// at any width, bit-equal to the scalar loops. Every tile multiplies (MULPS)
// and then adds (ADDPS), never a fused multiply-add: an FMA rounds once
// where every other kernel in the repo (the direct convolution, the
// interpreter reference, gemmMicroF32Go below) rounds twice, and would break
// every bitwise pin (`make no-fma` scans the package for one). The Go
// compiler fuses x*y + z on its own where the target has the instruction, as
// on arm64, so every Go loop that multiplies and then adds writes the product
// as an explicit conversion, float32(x*y), which the language defines to
// round: `make no-fma` scans the arm64 listing of this package and of
// tensor, video and app for a fused instruction. On amd64 the tiles are
// assembly (gemm_amd64.s):
//
//   - YMM, 4×16 over two panels, where the CPU has AVX and the OS saves YMM
//     state: eight YMM accumulators, two per A row; each k step two B loads
//     and four broadcasts. Eight independent add chains hide VADDPS's
//     latency, where one accumulator per row (4×8) leaves it exposed.
//   - AVX, 4×8 over one panel: four YMM accumulators. It runs only for a
//     last panel the YMM tile leaves.
//   - SSE2, the amd64 baseline, 4×8 in eight XMM accumulators: the tile of a
//     CPU without AVX. (The Go tile in its place is 1.3–3.3× slower on the
//     im2col convolutions.)
//
// Which tiles run is read once at init from CPUID and XGETBV (package cpuid)
// into cpuid.AVX and gemmWidePanels (gemm_amd64.go); nothing can force or
// forbid a tile. A 4×32 ZMM tile over four panels was measured and left out
// (gemmWidePanels says why).
// Everywhere else every tile is gemmMicroF32Go, which is also the oracle
// each assembly tile is tested against, panel by panel.
//
// The panel walk (gemmPanelsF32) takes the widest tile that fits the panels
// left in its range — gemmWidePanels of them, else one — and sweeps every A
// panel against it before moving on, so its B panels stay hot across the A
// panels. The parallel driver splits the panels
// into chunks of whole groups of gemmWidePanels, so only the chunk that ends
// at n has a tail.
//
// The quantized tile, serving qnn.conv2d, qnn.dense and their fused launches
// alike, is 4×8 int32 sums over the pair panels. On amd64 it is PMADDWD
// (gemm_amd64.s, baseline SSE2, so no feature test): per k-pair one A load,
// a PSHUFD broadcast of each row's pair, two B loads, eight PMADDWDs and
// eight PADDDs into eight XMM accumulators; everywhere else, and as its
// oracle, gemmMicroI16Go. It is exact: qnn data and weight are 8-bit and
// their zero points values of their dtypes (relay.CheckQnnZeroPoints), so
// every (raw − zp) lies in [−255, 255] and fits int16, a pair product-sum is
// at most 2·255² and fits int32, and wrapping int32 addition is associative,
// so summing by pairs equals the naive k-ascending int32 loop bit for bit.
// The tiles and the panel loops and drivers that call them are the only
// per-element-type code here.
//
// The A side arrives either row-major (gemmF32, gemmI32: dense, which
// pack it first) or already in panels (gemmPackedF32, gemmPackedI32: the
// im2col convolution, whose patch pack writes panels directly).
//
// Parallelism: the driver launches the N-panel loop as a parallel.Region
// with the block's MACs as its work estimate. Called from inside an
// already-parallel conv row loop the budget is exhausted and the panels run
// serially on the caller; called at top level (dense layers) with enough
// work they are split across the free workers. Neither allocates.

// Register tile shape of both element types: MR rows of A against NR rows of
// B (output channels). NR is one 8-lane YMM vector, or two 4-lane XMM
// vectors, of float32 or of int32 sums.
const (
	gemmMR = 4
	gemmNR = 8
)

// gemmWideNR is the widest f32 tile's column count, two panels: it sizes the
// accumulator buffer every f32 tile writes into.
const gemmWideNR = 2 * gemmNR

func gemmTiles(x, tile int) int { return (x + tile - 1) / tile }

// packPanels packs the first rows rows of src (k elements each, row stride
// ld) into panels width rows wide, interleaved by k: row t·width+i lands at
// dst[(t·k+kk)·width+i]. The tail rows of the last panel are zero-filled
// (they are computed but never written back). The LHS is packed at gemmMR,
// weights at their tile's NR.
func packPanels[T panelElem](dst, src []T, rows, k, ld, width int) {
	for t := 0; t*width < rows; t++ {
		for i := 0; i < width; i++ {
			row, d := t*width+i, t*k*width+i
			if row >= rows {
				for kk := 0; kk < k; kk++ {
					dst[d] = 0
					d += width
				}
				continue
			}
			// Four k steps per iteration: the LHS is repacked on every GEMM
			// call, and with a run-time width the one-step loop reads
			// 5–10 % slower on BenchmarkConvStrategy's im2col rows.
			s := src[row*ld : row*ld+k]
			for ; len(s) >= 4; s = s[4:] {
				dst[d] = s[0]
				dst[d+width] = s[1]
				dst[d+2*width] = s[2]
				dst[d+3*width] = s[3]
				d += 4 * width
			}
			for _, v := range s {
				dst[d] = v
				d += width
			}
		}
	}
}

// gemmMicroF32Go computes one 4×8 tile over the full K extent in portable Go:
// acc[i·8+j] = Σ_kk ap[kk·4+i]·bp[kk·8+j], with k = len(ap)/4 and bp at least
// 8k long. It is gemmMicroF32 on every architecture but amd64, and the oracle
// for the assembly there. The tile is walked as four 4×2 column pairs — eight
// accumulators and six operands, which stay in registers on a 16-register
// machine where 32 accumulators would spill on every step (and run at half
// the speed). One accumulator per cell, k ascending: bit-identical to the
// naive dot product.
//
//np:hotpath
func gemmMicroF32Go(ap, bp []float32, acc *[gemmMR * gemmNR]float32) {
	k := len(ap) / gemmMR
	ap = ap[:k*gemmMR]
	bp = bp[:k*gemmNR]
	for j := 0; j < gemmNR; j += 2 {
		var c00, c01 float32
		var c10, c11 float32
		var c20, c21 float32
		var c30, c31 float32
		a, b := ap, bp
		// K unrolled ×4: the slice-advance bookkeeping then amortizes over 32
		// MACs instead of 8. Each accumulator still sums its k products in
		// ascending order, so unrolling cannot change the result.
		for len(a) >= 4*gemmMR && len(b) >= 4*gemmNR {
			bj := b[j : j+3*gemmNR+2 : j+3*gemmNR+2]
			a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
			b0, b1 := bj[0], bj[1]
			c00 += float32(a0 * b0)
			c01 += float32(a0 * b1)
			c10 += float32(a1 * b0)
			c11 += float32(a1 * b1)
			c20 += float32(a2 * b0)
			c21 += float32(a2 * b1)
			c30 += float32(a3 * b0)
			c31 += float32(a3 * b1)
			a0, a1, a2, a3 = a[4], a[5], a[6], a[7]
			b0, b1 = bj[8], bj[9]
			c00 += float32(a0 * b0)
			c01 += float32(a0 * b1)
			c10 += float32(a1 * b0)
			c11 += float32(a1 * b1)
			c20 += float32(a2 * b0)
			c21 += float32(a2 * b1)
			c30 += float32(a3 * b0)
			c31 += float32(a3 * b1)
			a0, a1, a2, a3 = a[8], a[9], a[10], a[11]
			b0, b1 = bj[16], bj[17]
			c00 += float32(a0 * b0)
			c01 += float32(a0 * b1)
			c10 += float32(a1 * b0)
			c11 += float32(a1 * b1)
			c20 += float32(a2 * b0)
			c21 += float32(a2 * b1)
			c30 += float32(a3 * b0)
			c31 += float32(a3 * b1)
			a0, a1, a2, a3 = a[12], a[13], a[14], a[15]
			b0, b1 = bj[24], bj[25]
			c00 += float32(a0 * b0)
			c01 += float32(a0 * b1)
			c10 += float32(a1 * b0)
			c11 += float32(a1 * b1)
			c20 += float32(a2 * b0)
			c21 += float32(a2 * b1)
			c30 += float32(a3 * b0)
			c31 += float32(a3 * b1)
			a = a[4*gemmMR:]
			b = b[4*gemmNR:]
		}
		for len(a) >= gemmMR && len(b) >= gemmNR {
			a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
			b0, b1 := b[j], b[j+1]
			c00 += float32(a0 * b0)
			c01 += float32(a0 * b1)
			c10 += float32(a1 * b0)
			c11 += float32(a1 * b1)
			c20 += float32(a2 * b0)
			c21 += float32(a2 * b1)
			c30 += float32(a3 * b0)
			c31 += float32(a3 * b1)
			a = a[gemmMR:]
			b = b[gemmNR:]
		}
		acc[0*gemmNR+j], acc[0*gemmNR+j+1] = c00, c01
		acc[1*gemmNR+j], acc[1*gemmNR+j+1] = c10, c11
		acc[2*gemmNR+j], acc[2*gemmNR+j+1] = c20, c21
		acc[3*gemmNR+j], acc[3*gemmNR+j+1] = c30, c31
	}
}

// gemmF32 computes C[i·ldc+j] = Σ_k A[i·lda+k]·Bp[j][k] for i<m, j<n,
// where bpack holds B packed at gemmNR (packPanels, or a weight's panels):
// it packs A at gemmMR into pooled scratch and runs gemmPackedF32.
// Overwrite semantics; each cell's reduction is bit-identical to the naive
// loop.
func gemmF32(m, n, k int, a []float32, lda int, bpack []float32, c []float32, ldc int) {
	if m <= 0 || n <= 0 {
		return
	}
	apP := scratchF32.get(gemmTiles(m, gemmMR) * gemmMR * k)
	packPanels(*apP, a, m, k, lda, gemmMR)
	gemmPackedF32(m, n, k, *apP, bpack, c, ldc)
	scratchF32.put(apP)
}

// gemmPackedF32 is gemmF32 for an A that is already in gemmMR panels — the
// layout packCol writes the im2col patch matrix in — so nothing is
// repacked. The N-panels are split among workers in groups of
// gemmWidePanels, so a chunk boundary never cuts a wide tile and only the
// last chunk has a tail.
func gemmPackedF32(m, n, k int, ap, bpack, c []float32, ldc int) {
	if m <= 0 || n <= 0 {
		return
	}
	nt := gemmTiles(n, gemmNR)
	gemmRegionF32.Run(gemmTiles(nt, gemmWidePanels), int64(m)*int64(n)*int64(k),
		gemmGroupsF32{ap, bpack, c, m, n, k, ldc, nt})
}

var gemmRegionF32 = parallel.NewRegion(gemmGroupsF32.run)

// gemmGroupsF32 is gemmPackedF32's panel loop and its closure data: run
// covers panel groups [gLo, gHi) of gemmWidePanels panels.
type gemmGroupsF32 struct {
	ap, bpack, c      []float32
	mb, n, k, ldc, nt int
}

func (g gemmGroupsF32) run(gLo, gHi int) {
	w := gemmWidePanels
	gemmPanelsF32(g.ap, g.bpack, g.c, g.mb, g.n, g.k, g.ldc, gLo*w, min(gHi*w, g.nt))
}

// gemmPanelsF32 runs the register tiles over N-panels [jtLo,jtHi) against
// the mb packed LHS rows in ap and writes them into c (row stride ldc). It
// walks the panels in groups of the widest tile that fits what is left —
// gemmWidePanels adjacent panels, or the 4×8 tile for a last single one —
// and for each group sweeps every A panel.
//
//np:hotpath
func gemmPanelsF32(ap, bpack, c []float32, mb, n, k, ldc, jtLo, jtHi int) {
	mt := gemmTiles(mb, gemmMR)
	var acc [gemmMR * gemmWideNR]float32
	for jt := jtLo; jt < jtHi; {
		w := min(gemmWidePanels, jtHi-jt)
		bp := bpack[jt*k*gemmNR : (jt+w)*k*gemmNR]
		nj, ld := min(w*gemmNR, n-jt*gemmNR), w*gemmNR
		for it := 0; it < mt; it++ {
			gemmMicroF32Wide(w, ap[it*k*gemmMR:(it+1)*k*gemmMR], bp, &acc)
			mi := min(gemmMR, mb-it*gemmMR)
			for i := 0; i < mi; i++ {
				row := c[(it*gemmMR+i)*ldc+jt*gemmNR:]
				copy(row[:nj], acc[i*ld:])
			}
		}
		jt += w
	}
}

// ---- quantized variant: int16 pair panels, int32 accumulators ----

// i16x2 is one k-pair of a quantized operand: two int16 values of
// (raw − zero point), the even k in the low half. The quantized panels are
// built of these units exactly as the float panels are built of float32
// values — packPanels and packCol move whole pairs — so an A panel holds, per
// k-pair, the four rows' pairs, and a B panel the eight columns' pairs.
type i16x2 uint32

// pairOf packs two (raw − zp) values into one unit.
func pairOf(lo, hi int32) i16x2 { return i16x2(uint16(lo)) | i16x2(uint16(hi))<<16 }

// dot is the unit's pair product-sum, PMADDWD's per-lane operation.
func (u i16x2) dot(v i16x2) int32 {
	return int32(int16(u))*int32(int16(v)) + int32(int16(u>>16))*int32(int16(v>>16))
}

// gemmMicroI16Go computes one 4×8 tile of int32 sums over the full K extent
// in portable Go: acc[i·8+j] = Σ_p ap[p·4+i]·bp[p·8+j], each term one pair
// product-sum, with kp = len(ap)/4 pairs and bp at least 8kp long. It is
// gemmMicroI16 on every architecture but amd64 and the oracle for the
// assembly there. Like gemmMicroF32Go it walks the tile as four 4×2 column
// pairs so the eight accumulators stay in registers.
//
//np:hotpath
func gemmMicroI16Go(ap, bp []i16x2, acc *[gemmMR * gemmNR]int32) {
	kp := len(ap) / gemmMR
	ap = ap[:kp*gemmMR]
	bp = bp[:kp*gemmNR]
	for j := 0; j < gemmNR; j += 2 {
		var c00, c01 int32
		var c10, c11 int32
		var c20, c21 int32
		var c30, c31 int32
		a, b := ap, bp
		for len(a) >= gemmMR && len(b) >= gemmNR {
			a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
			b0, b1 := b[j], b[j+1]
			c00 += a0.dot(b0)
			c01 += a0.dot(b1)
			c10 += a1.dot(b0)
			c11 += a1.dot(b1)
			c20 += a2.dot(b0)
			c21 += a2.dot(b1)
			c30 += a3.dot(b0)
			c31 += a3.dot(b1)
			a = a[gemmMR:]
			b = b[gemmNR:]
		}
		acc[0*gemmNR+j], acc[0*gemmNR+j+1] = c00, c01
		acc[1*gemmNR+j], acc[1*gemmNR+j+1] = c10, c11
		acc[2*gemmNR+j], acc[2*gemmNR+j+1] = c20, c21
		acc[3*gemmNR+j], acc[3*gemmNR+j+1] = c30, c31
	}
}

// gemmI32 is gemmF32 for the quantized operands: A is m rows of kp pairs
// (row stride lda), B packed at gemmNR, C int32.
func gemmI32(m, n, kp int, a []i16x2, lda int, bpack []i16x2, c []int32, ldc int) {
	if m <= 0 || n <= 0 {
		return
	}
	apP := scratchPairs.get(gemmTiles(m, gemmMR) * gemmMR * kp)
	packPanels(*apP, a, m, kp, lda, gemmMR)
	gemmPackedI32(m, n, kp, *apP, bpack, c, ldc)
	scratchPairs.put(apP)
}

// gemmPackedI32 is gemmPackedF32 for the quantized operands.
func gemmPackedI32(m, n, kp int, ap, bpack []i16x2, c []int32, ldc int) {
	if m <= 0 || n <= 0 {
		return
	}
	gemmRegionI32.Run(gemmTiles(n, gemmNR), 2*int64(m)*int64(n)*int64(kp),
		gemmPanelsI32Args{ap, bpack, c, m, n, kp, ldc})
}

var gemmRegionI32 = parallel.NewRegion(gemmPanelsI32Args.run)

// gemmPanelsI32Args is gemmPackedI32's panel loop and its closure data; its
// work counts each k-pair as two MACs.
type gemmPanelsI32Args struct {
	ap, bpack      []i16x2
	c              []int32
	mb, n, kp, ldc int
}

func (g gemmPanelsI32Args) run(jtLo, jtHi int) {
	gemmPanelsI32(g.ap, g.bpack, g.c, g.mb, g.n, g.kp, g.ldc, jtLo, jtHi)
}

// gemmPanelsI32 is gemmPanelsF32 for the quantized operands.
//
//np:hotpath
func gemmPanelsI32(ap, bpack []i16x2, c []int32, mb, n, kp, ldc, jtLo, jtHi int) {
	mt := gemmTiles(mb, gemmMR)
	var acc [gemmMR * gemmNR]int32
	for jt := jtLo; jt < jtHi; jt++ {
		bp := bpack[jt*kp*gemmNR : (jt+1)*kp*gemmNR]
		nj := min(gemmNR, n-jt*gemmNR)
		for it := 0; it < mt; it++ {
			gemmMicroI16(ap[it*kp*gemmMR:(it+1)*kp*gemmMR], bp, &acc)
			mi := min(gemmMR, mb-it*gemmMR)
			for i := 0; i < mi; i++ {
				row := c[(it*gemmMR+i)*ldc+jt*gemmNR:]
				copy(row[:nj], acc[i*gemmNR:])
			}
		}
	}
}

// ---- packed weight panels ----
//
// Convolution and dense weights are module constants: pack them once per
// weight tensor and keep the panels on the tensor itself (Tensor.Derived),
// so they live exactly as long as the constant — and so as long as the
// module that owns it. A weight used with a grouping or zero point other
// than the one its panels were packed with (which real models never do)
// packs afresh each time and leaves the stored panels alone.

// panelElem is the element of a GEMM panel: a float32, or a quantized
// operand's k-pair.
type panelElem interface{ float32 | i16x2 }

// packedWeight is one weight tensor's panels: for each of groups groups,
// ceil(ocg/nr)·nr rows of k elements packed at width nr, glen elements.
// Quantized weights are packed as (raw − zp) pairs.
type packedWeight[T panelElem] struct {
	groups, glen int
	zp           int32
	data         []T
}

// packWeight packs w — oc rows of k = len(w)/oc elements, split into
// groups — at width nr.
func packWeight[T panelElem](w []T, oc, groups, nr int, zp int32) *packedWeight[T] {
	k, ocg := len(w)/oc, oc/groups
	glen := gemmTiles(ocg, nr) * nr * k
	pw := &packedWeight[T]{groups: groups, glen: glen, zp: zp, data: make([]T, groups*glen)}
	for g := 0; g < groups; g++ {
		packPanels(pw.data[g*glen:(g+1)*glen], w[g*ocg*k:], ocg, k, k, nr)
	}
	return pw
}

// group returns the panel slice for group g.
func (pw *packedWeight[T]) group(g int) []T { return pw.data[g*pw.glen : (g+1)*pw.glen] }

// weightPanels returns the panels stored on w when they were packed with
// the same grouping and zero point, else nil.
//
//np:hotpath
func weightPanels[T panelElem](w *tensor.Tensor, groups int, zp int32) *packedWeight[T] {
	if pw, ok := w.Derived().(*packedWeight[T]); ok && pw.groups == groups && pw.zp == zp {
		return pw
	}
	return nil
}

// packedConvWeightF32 returns the panels of a float weight tensor — OHWI
// filters or the rows of a dense weight, oc = w.Shape[0] rows of the
// remaining elements — split into groups.
func packedConvWeightF32(w *tensor.Tensor, groups int) *packedWeight[float32] {
	if pw := weightPanels[float32](w, groups, 0); pw != nil {
		return pw
	}
	pw := packWeight(w.F32(), w.Shape[0], groups, gemmNR, 0)
	w.SetDerived(pw)
	return pw
}

// packedConvWeightI32 returns the (raw − zero_point) pair panels of a
// quantized weight tensor, its innermost vectors (a filter tap's channels, a
// dense row) each padded to an even length (rawMinusZpPairs).
func packedConvWeightI32(w *tensor.Tensor, groups int, zp int32) (*packedWeight[i16x2], error) {
	if pw := weightPanels[i16x2](w, groups, zp); pw != nil {
		return pw, nil
	}
	vec := w.Shape[len(w.Shape)-1]
	rawP := scratchPairs.get(w.Elems() / vec * pairsOf(vec))
	defer scratchPairs.put(rawP)
	if err := rawMinusZpPairs(*rawP, w, zp, vec); err != nil {
		return nil, err
	}
	pw := packWeight(*rawP, w.Shape[0], groups, gemmNR, zp)
	w.SetDerived(pw)
	return pw, nil
}

// pairsOf is the number of k-pairs that hold n values.
func pairsOf(n int) int { return (n + 1) / 2 }

// rawMinusZp widens a quantized tensor's raw values into dst, subtracting
// the zero point: a parallel launch over the elements, one MAC-equivalent
// each, so a tensor large enough to pay for a split is widened by the
// helper pool instead of on the caller alone.
func rawMinusZp(dst []int32, t *tensor.Tensor, zp int32) error {
	switch t.DType {
	case tensor.UInt8:
		src := t.U8()
		widenRegionU8.Elems(len(src), widenArgs[uint8]{dst, src, zp})
	case tensor.Int8:
		src := t.I8()
		widenRegionI8.Elems(len(src), widenArgs[int8]{dst, src, zp})
	default:
		return fmt.Errorf("quantized kernel on %s tensor", t.DType)
	}
	return nil
}

var (
	widenRegionU8 = parallel.NewRegion(widenArgs[uint8].run)
	widenRegionI8 = parallel.NewRegion(widenArgs[int8].run)
)

// widenArgs is rawMinusZp's chunk: elements [lo, hi).
type widenArgs[T uint8 | int8] struct {
	dst []int32
	src []T
	zp  int32
}

func (a widenArgs[T]) run(lo, hi int) { widen(a.dst[lo:hi], a.src[lo:hi], a.zp) }

// widen writes dst[i] = src[i] − zp.
//
//np:hotpath
func widen[T uint8 | int8](dst []int32, src []T, zp int32) {
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = int32(v) - zp
	}
}

// rawMinusZpPairs is rawMinusZp into k-pairs: t's raw values, read as
// consecutive vectors of vec, each become pairsOf(vec) units of dst, a
// vector of odd length padded with a zero. With vec a convolution's
// per-group channel count the padding is per tap, so a pair never straddles
// two taps and the patch pack moves whole pairs; the zero meets a zero
// weight pad, so the sums are those of the unpadded reduction. The launch
// splits over whole vectors, so no pair straddles two chunks either.
func rawMinusZpPairs(dst []i16x2, t *tensor.Tensor, zp int32, vec int) error {
	switch t.DType {
	case tensor.UInt8:
		src := t.U8()
		widenPairsRegionU8.Run(len(src)/vec, int64(len(src)), widenPairsArgs[uint8]{dst, src, zp, vec})
	case tensor.Int8:
		src := t.I8()
		widenPairsRegionI8.Run(len(src)/vec, int64(len(src)), widenPairsArgs[int8]{dst, src, zp, vec})
	default:
		return fmt.Errorf("quantized kernel on %s tensor", t.DType)
	}
	return nil
}

var (
	widenPairsRegionU8 = parallel.NewRegion(widenPairsArgs[uint8].run)
	widenPairsRegionI8 = parallel.NewRegion(widenPairsArgs[int8].run)
)

// widenPairsArgs is rawMinusZpPairs' chunk: vectors [lo, hi).
type widenPairsArgs[T uint8 | int8] struct {
	dst []i16x2
	src []T
	zp  int32
	vec int
}

func (a widenPairsArgs[T]) run(lo, hi int) {
	vp := pairsOf(a.vec)
	widenPairs(a.dst[lo*vp:hi*vp], a.src[lo*a.vec:hi*a.vec], a.zp, a.vec)
}

// widenPairs widens whole vectors of vec raw values of src into
// pairsOf(vec) k-pairs each of dst. An even vec pads nothing, so its
// vectors are one run of pairs; an odd one ends each vector in a pair
// padded with a zero.
//
//np:hotpath
func widenPairs[T uint8 | int8](dst []i16x2, src []T, zp int32, vec int) {
	if vec%2 == 0 {
		dst = dst[:len(src)/2]
		for j := range dst {
			s := src[2*j : 2*j+2 : 2*j+2]
			dst[j] = pairOf(int32(s[0])-zp, int32(s[1])-zp)
		}
		return
	}
	vp := pairsOf(vec)
	for ; len(src) >= vec; src, dst = src[vec:], dst[vp:] {
		s, d := src[:vec], dst[:vp]
		for j := 0; j < vec/2; j++ {
			d[j] = pairOf(int32(s[2*j])-zp, int32(s[2*j+1])-zp)
		}
		d[vp-1] = pairOf(int32(s[vec-1])-zp, 0)
	}
}
