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
//     generic over the element type): A into gemmMR-row panels interleaved
//     by k (panel layout ap[(it·k+kk)·MR+i]), B into NR-row panels
//     (bp[(jt·k+kk)·NR+j]). On the im2col path packCol writes A in that
//     layout straight from the image. The micro-kernel then reads both operands
//     as two forward streams, which removes all index arithmetic and bounds
//     checks from the inner loop. The panel layout is the same on every
//     architecture and is never serialized.
//   - The micro-kernel keeps a full MR×NR accumulator tile and runs the K
//     loop unblocked. Each output cell owns exactly one accumulator that
//     sums k in ascending order, each step one multiply rounded to float32
//     and then one add rounded to float32, so the result is bit-identical to
//     the naive single-accumulator dot product — the property the GEMM
//     equivalence tests pin (gemm_test.go).
//   - Weight panels are immutable per model, so they are packed once per
//     weight tensor (packedWeight, one generic type for both element types)
//     and cached in the bounded weightCache instances of weightcache.go:
//     steady-state inference repacks only the activation side.
//
// Tile shapes. The f32 tile is 4×8, and on amd64 it is assembly
// (gemm_amd64.s) in two widths over the same panels. Both vectorise across N
// — one lane per output cell, every cell's reduction serial in k — which is
// what makes a vector tile bit-equal to the scalar loops. Both multiply
// (MULPS) and then add (ADDPS), never a fused multiply-add: an FMA rounds
// once where every other kernel in the repo (the direct convolution, the
// interpreter reference, gemmMicroF32Go below) rounds twice, and would break
// every bitwise pin (`make no-fma` scans the package for one). (Where the Go
// compiler itself fuses x*y + z, as on arm64, it does so in all of those
// loops alike.)
//
//   - AVX: four YMM accumulators, one per A row, each k step one load of the
//     eight B values and four broadcast A values. gemmMicroF32 runs it when
//     the CPU has AVX and the OS saves YMM state — CPUID and XGETBV, read
//     once at init into useAVX (gemm_amd64.go); nothing can force or forbid
//     it.
//   - SSE2, the amd64 baseline and the fallback: eight XMM accumulators, two
//     vectors of four output channels per A row.
//
// Everywhere else gemmMicroF32 is gemmMicroF32Go, which is also the oracle
// both assembly tiles are tested against, separately. The int32 tile is the
// scalar 4×2 below, serving qnn.conv2d, qnn.dense and their fused launches
// alike: integer accumulation is exact in any order, and a SIMD int8 tile is
// a separate piece of work. The tiles and the panel loops and drivers that
// call them are the only per-element-type code here.
//
// The A side arrives either row-major (gemmF32Cfg, gemmI32Cfg: dense, which
// pack it first) or already in panels (gemmPackedF32, gemmPackedI32: the
// im2col convolution, whose patch pack writes panels directly).
//
// Parallelism: the driver asks the shared inter/intra-op token budget
// (parallel.AcquireWorkers) how many workers the N-panel loop may use. Called
// from inside an already-parallel conv row loop the budget is exhausted and
// the panels run serially on the caller — a plain call, no closure; called at
// top level (dense layers) the panels fan out across the free workers
// (parallel.RunChunks).

// Register tile shapes: MR rows of A against NR rows of B (output channels).
const (
	gemmMR    = 4 // both element types
	gemmNRF32 = 8 // one 8-lane YMM vector, or two 4-lane XMM vectors
	gemmNR    = 2 // int32: 8 scalar accumulators + 6 operands fit 16 registers
)

func gemmTiles(x, tile int) int { return (x + tile - 1) / tile }

// packPanels packs the first rows rows of src (k elements each, row stride
// ld) into panels width rows wide, interleaved by k: row t·width+i lands at
// dst[(t·k+kk)·width+i]. The tail rows of the last panel are zero-filled
// (they are computed but never written back). The LHS is packed at gemmMR,
// weights at their tile's NR.
func packPanels[T float32 | int32](dst, src []T, rows, k, ld, width int) {
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
func gemmMicroF32Go(ap, bp []float32, acc *[gemmMR * gemmNRF32]float32) {
	k := len(ap) / gemmMR
	ap = ap[:k*gemmMR]
	bp = bp[:k*gemmNRF32]
	for j := 0; j < gemmNRF32; j += 2 {
		var c00, c01 float32
		var c10, c11 float32
		var c20, c21 float32
		var c30, c31 float32
		a, b := ap, bp
		// K unrolled ×4: the slice-advance bookkeeping then amortizes over 32
		// MACs instead of 8. Each accumulator still sums its k products in
		// ascending order, so unrolling cannot change the result.
		for len(a) >= 4*gemmMR && len(b) >= 4*gemmNRF32 {
			bj := b[j : j+3*gemmNRF32+2 : j+3*gemmNRF32+2]
			a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
			b0, b1 := bj[0], bj[1]
			c00 += a0 * b0
			c01 += a0 * b1
			c10 += a1 * b0
			c11 += a1 * b1
			c20 += a2 * b0
			c21 += a2 * b1
			c30 += a3 * b0
			c31 += a3 * b1
			a0, a1, a2, a3 = a[4], a[5], a[6], a[7]
			b0, b1 = bj[8], bj[9]
			c00 += a0 * b0
			c01 += a0 * b1
			c10 += a1 * b0
			c11 += a1 * b1
			c20 += a2 * b0
			c21 += a2 * b1
			c30 += a3 * b0
			c31 += a3 * b1
			a0, a1, a2, a3 = a[8], a[9], a[10], a[11]
			b0, b1 = bj[16], bj[17]
			c00 += a0 * b0
			c01 += a0 * b1
			c10 += a1 * b0
			c11 += a1 * b1
			c20 += a2 * b0
			c21 += a2 * b1
			c30 += a3 * b0
			c31 += a3 * b1
			a0, a1, a2, a3 = a[12], a[13], a[14], a[15]
			b0, b1 = bj[24], bj[25]
			c00 += a0 * b0
			c01 += a0 * b1
			c10 += a1 * b0
			c11 += a1 * b1
			c20 += a2 * b0
			c21 += a2 * b1
			c30 += a3 * b0
			c31 += a3 * b1
			a = a[4*gemmMR:]
			b = b[4*gemmNRF32:]
		}
		for len(a) >= gemmMR && len(b) >= gemmNRF32 {
			a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
			b0, b1 := b[j], b[j+1]
			c00 += a0 * b0
			c01 += a0 * b1
			c10 += a1 * b0
			c11 += a1 * b1
			c20 += a2 * b0
			c21 += a2 * b1
			c30 += a3 * b0
			c31 += a3 * b1
			a = a[gemmMR:]
			b = b[gemmNRF32:]
		}
		acc[0*gemmNRF32+j], acc[0*gemmNRF32+j+1] = c00, c01
		acc[1*gemmNRF32+j], acc[1*gemmNRF32+j+1] = c10, c11
		acc[2*gemmNRF32+j], acc[2*gemmNRF32+j+1] = c20, c21
		acc[3*gemmNRF32+j], acc[3*gemmNRF32+j+1] = c30, c31
	}
}

// gemmMCBlock resolves the tuned MC row-block size: the full m by default,
// else cfg.GemmMC rounded up to the register-tile height, so a block is a
// run of whole panels. Blocking only changes the order the tiles are
// visited in — every output cell still runs one k-ascending reduction, so
// results stay bit-identical.
func gemmMCBlock(m int, cfg *KernelConfig) int {
	if cfg == nil || cfg.GemmMC <= 0 || cfg.GemmMC >= m {
		return m
	}
	return gemmTiles(cfg.GemmMC, gemmMR) * gemmMR
}

// gemmF32Cfg computes C[i·ldc+j] = Σ_k A[i·lda+k]·Bp[j][k] for i<m, j<n,
// where bpack holds B packed at gemmNRF32 (packPanels, or the weight cache):
// it packs A at gemmMR into pooled scratch and runs gemmPackedF32.
// Overwrite semantics; each cell's reduction is bit-identical to the naive
// loop. cfg (nil: every default) carries the tuned knobs: MC row blocking
// (LHS locality for tall matrices) and per-call worker/grain limits on the
// N-tile loop.
func gemmF32Cfg(m, n, k int, a []float32, lda int, bpack []float32, c []float32, ldc int, cfg *KernelConfig) {
	if m <= 0 || n <= 0 {
		return
	}
	apP := getScratchF32(gemmTiles(m, gemmMR) * gemmMR * k)
	packPanels(*apP, a, m, k, lda, gemmMR)
	gemmPackedF32(m, n, k, *apP, bpack, c, ldc, cfg)
	putScratchF32(apP)
}

// gemmPackedF32 is gemmF32Cfg for an A that is already in gemmMR panels —
// the layout packCol writes the im2col patch matrix in — so nothing is
// repacked. MC blocks are runs of whole panels (the block height is a
// multiple of gemmMR), each swept against every N-panel before the next.
func gemmPackedF32(m, n, k int, ap, bpack, c []float32, ldc int, cfg *KernelConfig) {
	if m <= 0 || n <= 0 {
		return
	}
	mc := gemmMCBlock(m, cfg)
	nt := gemmTiles(n, gemmNRF32)
	opts := cfg.gemmOpts()
	for i0 := 0; i0 < m; i0 += mc {
		mb := min(mc, m-i0)
		apb, cb := ap[i0*k:], c[i0*ldc:]
		// Ask before building the closure RunChunks needs: on the serial
		// answer the panel loop is a plain call.
		if workers := parallel.AcquireWorkers(nt, opts); workers > 1 {
			parallel.RunChunks(nt, workers, func(jtLo, jtHi int) {
				gemmPanelsF32(apb, bpack, cb, mb, n, k, ldc, jtLo, jtHi)
			})
		} else {
			gemmPanelsF32(apb, bpack, cb, mb, n, k, ldc, 0, nt)
		}
	}
}

// gemmPanelsF32 runs the micro-kernel over N-panels [jtLo,jtHi) against the mb
// packed LHS rows in ap and writes the tiles into c (row stride ldc).
//
//np:hotpath
func gemmPanelsF32(ap, bpack, c []float32, mb, n, k, ldc, jtLo, jtHi int) {
	mt := gemmTiles(mb, gemmMR)
	var acc [gemmMR * gemmNRF32]float32
	for jt := jtLo; jt < jtHi; jt++ {
		bp := bpack[jt*k*gemmNRF32 : (jt+1)*k*gemmNRF32]
		nj := min(gemmNRF32, n-jt*gemmNRF32)
		for it := 0; it < mt; it++ {
			gemmMicroF32(ap[it*k*gemmMR:(it+1)*k*gemmMR], bp, &acc)
			mi := min(gemmMR, mb-it*gemmMR)
			for i := 0; i < mi; i++ {
				row := c[(it*gemmMR+i)*ldc+jt*gemmNRF32:]
				copy(row[:nj], acc[i*gemmNRF32:])
			}
		}
	}
}

// ---- int32 variant (quantized conv/dense accumulators) ----

// gemmMicroI32 is the int32 register tile. Integer addition is associative,
// so any evaluation order is bitwise-exact.
//
//np:hotpath
func gemmMicroI32(ap, bp []int32) (acc [gemmMR * gemmNR]int32) {
	var c00, c01 int32
	var c10, c11 int32
	var c20, c21 int32
	var c30, c31 int32
	// Same ×4 K unroll as the f32 kernel; integer addition is associative,
	// so evaluation order is irrelevant to the (exact) result anyway.
	for len(ap) >= 4*gemmMR && len(bp) >= 4*gemmNR {
		a0, a1, a2, a3 := ap[0], ap[1], ap[2], ap[3]
		b0, b1 := bp[0], bp[1]
		c00 += a0 * b0
		c01 += a0 * b1
		c10 += a1 * b0
		c11 += a1 * b1
		c20 += a2 * b0
		c21 += a2 * b1
		c30 += a3 * b0
		c31 += a3 * b1
		a0, a1, a2, a3 = ap[4], ap[5], ap[6], ap[7]
		b0, b1 = bp[2], bp[3]
		c00 += a0 * b0
		c01 += a0 * b1
		c10 += a1 * b0
		c11 += a1 * b1
		c20 += a2 * b0
		c21 += a2 * b1
		c30 += a3 * b0
		c31 += a3 * b1
		a0, a1, a2, a3 = ap[8], ap[9], ap[10], ap[11]
		b0, b1 = bp[4], bp[5]
		c00 += a0 * b0
		c01 += a0 * b1
		c10 += a1 * b0
		c11 += a1 * b1
		c20 += a2 * b0
		c21 += a2 * b1
		c30 += a3 * b0
		c31 += a3 * b1
		a0, a1, a2, a3 = ap[12], ap[13], ap[14], ap[15]
		b0, b1 = bp[6], bp[7]
		c00 += a0 * b0
		c01 += a0 * b1
		c10 += a1 * b0
		c11 += a1 * b1
		c20 += a2 * b0
		c21 += a2 * b1
		c30 += a3 * b0
		c31 += a3 * b1
		ap = ap[4*gemmMR:]
		bp = bp[4*gemmNR:]
	}
	for len(ap) >= gemmMR && len(bp) >= gemmNR {
		a0, a1, a2, a3 := ap[0], ap[1], ap[2], ap[3]
		b0, b1 := bp[0], bp[1]
		c00 += a0 * b0
		c01 += a0 * b1
		c10 += a1 * b0
		c11 += a1 * b1
		c20 += a2 * b0
		c21 += a2 * b1
		c30 += a3 * b0
		c31 += a3 * b1
		ap = ap[gemmMR:]
		bp = bp[gemmNR:]
	}
	acc[0], acc[1] = c00, c01
	acc[2], acc[3] = c10, c11
	acc[4], acc[5] = c20, c21
	acc[6], acc[7] = c30, c31
	return acc
}

// gemmI32Cfg is gemmF32Cfg for int32 operands, B packed at gemmNR.
func gemmI32Cfg(m, n, k int, a []int32, lda int, bpack []int32, c []int32, ldc int, cfg *KernelConfig) {
	if m <= 0 || n <= 0 {
		return
	}
	apP := getScratchI32(gemmTiles(m, gemmMR) * gemmMR * k)
	packPanels(*apP, a, m, k, lda, gemmMR)
	gemmPackedI32(m, n, k, *apP, bpack, c, ldc, cfg)
	putScratchI32(apP)
}

// gemmPackedI32 is gemmPackedF32 for int32 operands.
func gemmPackedI32(m, n, k int, ap, bpack, c []int32, ldc int, cfg *KernelConfig) {
	if m <= 0 || n <= 0 {
		return
	}
	mc := gemmMCBlock(m, cfg)
	nt := gemmTiles(n, gemmNR)
	opts := cfg.gemmOpts()
	for i0 := 0; i0 < m; i0 += mc {
		mb := min(mc, m-i0)
		apb, cb := ap[i0*k:], c[i0*ldc:]
		if workers := parallel.AcquireWorkers(nt, opts); workers > 1 {
			parallel.RunChunks(nt, workers, func(jtLo, jtHi int) {
				gemmPanelsI32(apb, bpack, cb, mb, n, k, ldc, jtLo, jtHi)
			})
		} else {
			gemmPanelsI32(apb, bpack, cb, mb, n, k, ldc, 0, nt)
		}
	}
}

// gemmPanelsI32 runs the micro-kernel over N-panels [jtLo,jtHi) against the mb
// packed LHS rows in ap and writes the tiles into c (row stride ldc).
//
//np:hotpath
func gemmPanelsI32(ap, bpack, c []int32, mb, n, k, ldc, jtLo, jtHi int) {
	mt := gemmTiles(mb, gemmMR)
	for jt := jtLo; jt < jtHi; jt++ {
		bp := bpack[jt*k*gemmNR : (jt+1)*k*gemmNR]
		nj := min(gemmNR, n-jt*gemmNR)
		for it := 0; it < mt; it++ {
			acc := gemmMicroI32(ap[it*k*gemmMR:(it+1)*k*gemmMR], bp)
			mi := min(gemmMR, mb-it*gemmMR)
			for i := 0; i < mi; i++ {
				row := c[(it*gemmMR+i)*ldc+jt*gemmNR:]
				for j := 0; j < nj; j++ {
					row[j] = acc[i*gemmNR+j]
				}
			}
		}
	}
}

// ---- packed weight caches ----
//
// Convolution and dense weights are module constants: pack them once per
// weight tensor and reuse the panels for every inference. Keyed by tensor
// identity, so live modules keep their entries hot; the caches themselves
// are the bounded weightCache instances in weightcache.go, so retired
// models' panels age out instead of accumulating forever. A key collision
// (same tensor used with different grouping or zero point — which real
// models never do) falls back to an uncached pack.

// packedWeight is one weight tensor's panels: for each of groups groups,
// ceil(ocg/nr)·nr rows of k elements packed at width nr, glen elements.
// Quantized weights are packed as (raw − zp).
type packedWeight[T float32 | int32] struct {
	groups, glen int
	zp           int32
	data         []T
}

// packWeight packs w — oc rows of k = len(w)/oc elements, split into
// groups — at width nr.
func packWeight[T float32 | int32](w []T, oc, groups, nr int, zp int32) *packedWeight[T] {
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

// cachedWeight looks w up in cache: the panels when they were packed with
// the same grouping and zero point; otherwise nil, and store reports
// whether the caller's fresh pack may be cached (a miss) or not (a key
// collision).
func cachedWeight[T float32 | int32](cache *weightCache, w *tensor.Tensor, groups int, zp int32) (pw *packedWeight[T], store bool) {
	v, ok := cache.get(w)
	if !ok {
		return nil, true
	}
	if pw := v.(*packedWeight[T]); pw.groups == groups && pw.zp == zp {
		return pw, false
	}
	return nil, false
}

// packedConvWeightF32 returns the cached panels of a float weight tensor —
// OHWI filters or the rows of a dense weight, oc = w.Shape[0] rows of the
// remaining elements — split into groups.
func packedConvWeightF32(w *tensor.Tensor, groups int) *packedWeight[float32] {
	pw, store := cachedWeight[float32](gemmWeightF32, w, groups, 0)
	if pw == nil {
		pw = packWeight(w.F32(), w.Shape[0], groups, gemmNRF32, 0)
		if store {
			gemmWeightF32.put(w, pw)
		}
	}
	return pw
}

// packedConvWeightI32 returns the cached (raw − zero_point) panels of a
// quantized weight tensor.
func packedConvWeightI32(w *tensor.Tensor, groups int, zp int32) (*packedWeight[int32], error) {
	pw, store := cachedWeight[int32](gemmWeightI32, w, groups, zp)
	if pw != nil {
		return pw, nil
	}
	rawP := getScratchI32(w.Elems())
	defer putScratchI32(rawP)
	if err := rawMinusZp(*rawP, w, zp); err != nil {
		return nil, err
	}
	pw = packWeight(*rawP, w.Shape[0], groups, gemmNR, zp)
	if store {
		gemmWeightI32.put(w, pw)
	}
	return pw, nil
}

// rawMinusZp widens a quantized tensor's raw values into dst, subtracting
// the zero point.
func rawMinusZp(dst []int32, t *tensor.Tensor, zp int32) error {
	switch t.DType {
	case tensor.UInt8:
		for i, v := range t.U8() {
			dst[i] = int32(v) - zp
		}
	case tensor.Int8:
		for i, v := range t.I8() {
			dst[i] = int32(v) - zp
		}
	case tensor.Int32:
		for i, v := range t.I32() {
			dst[i] = v - zp
		}
	default:
		return fmt.Errorf("quantized kernel on %s tensor", t.DType)
	}
	return nil
}
