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
//   - Both operands are repacked into register-tile panels: A into
//     gemmMR-row panels interleaved by k (panel layout ap[(it·k+kk)·MR+i]),
//     B into NR-row panels (bp[(jt·k+kk)·NR+j]). The micro-kernel then reads
//     both operands as two forward streams, which removes all index
//     arithmetic and bounds checks from the inner loop. The panel layout is
//     the same on every architecture and is never serialized.
//   - The micro-kernel keeps a full MR×NR accumulator tile and runs the K
//     loop unblocked. Each output cell owns exactly one accumulator that
//     sums k in ascending order, each step one multiply rounded to float32
//     and then one add rounded to float32, so the result is bit-identical to
//     the naive single-accumulator dot product — the property the GEMM
//     equivalence tests pin (gemm_test.go).
//   - Weight panels are immutable per model, so packRHS results are cached
//     per weight tensor (the bounded weightCache instances in
//     weightcache.go): steady-state inference repacks only the activation
//     side.
//
// Tile shapes. The f32 tile is 4×8: on amd64 the kernel is SSE2 assembly
// (gemm_amd64.s) holding the tile in eight XMM accumulators — two vectors of
// four output channels per A row, one lane per output cell — and spending
// the other eight registers on the two B vectors and the broadcast A values.
// Vectorising across N keeps every cell's reduction serial in k, which is
// what makes the vector tile bit-equal to the scalar loops. It multiplies
// (MULPS) and then adds (ADDPS), never a fused multiply-add: an FMA rounds
// once where every other kernel in the repo (the direct convolution, the
// interpreter reference, gemmMicroF32Go below) rounds twice, and would break
// every bitwise pin. (Where the Go compiler itself fuses x*y + z, as on
// arm64, it does so in all of those loops alike.) SSE2 is the amd64 baseline,
// so there is no feature detection and no second code path on that
// architecture. Everywhere else
// gemmMicroF32 is gemmMicroF32Go, which is also the oracle the assembly is
// tested against. The int32 tile stays the scalar 4×2 below: integer
// addition is associative, so the quantized side has no ordering constraint
// and is a separate piece of work.
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
	gemmNRF32 = 8 // two 4-lane vectors
	gemmNR    = 2 // int32: 8 scalar accumulators + 6 operands fit 16 registers
)

func gemmTiles(x, tile int) int { return (x + tile - 1) / tile }

// packLHSF32 packs m rows of k elements (row stride lda) into MR-interleaved
// panels; tail rows of the last panel are zero-filled (they are computed but
// never written back).
func packLHSF32(dst, a []float32, m, k, lda int) {
	mt := gemmTiles(m, gemmMR)
	for it := 0; it < mt; it++ {
		base := it * k * gemmMR
		for i := 0; i < gemmMR; i++ {
			row := it*gemmMR + i
			if row >= m {
				for kk := 0; kk < k; kk++ {
					dst[base+kk*gemmMR+i] = 0
				}
				continue
			}
			src := a[row*lda : row*lda+k]
			for kk, v := range src {
				dst[base+kk*gemmMR+i] = v
			}
		}
	}
}

// packRHSF32 packs n rows of k elements (row stride ldb) into NR-interleaved
// panels, zero-filling tail rows.
func packRHSF32(dst, b []float32, n, k, ldb int) {
	nt := gemmTiles(n, gemmNRF32)
	for jt := 0; jt < nt; jt++ {
		base := jt * k * gemmNRF32
		for j := 0; j < gemmNRF32; j++ {
			row := jt*gemmNRF32 + j
			if row >= n {
				for kk := 0; kk < k; kk++ {
					dst[base+kk*gemmNRF32+j] = 0
				}
				continue
			}
			src := b[row*ldb : row*ldb+k]
			for kk, v := range src {
				dst[base+kk*gemmNRF32+j] = v
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

// gemmF32 computes C[i·ldc+j] = Σ_k A[i·lda+k]·Bp[j][k] for i<m, j<n, where
// bpack holds B pre-packed by packRHSF32 (or the weight cache). Overwrite
// semantics; each cell's reduction is bit-identical to the naive loop.
func gemmF32(m, n, k int, a []float32, lda int, bpack []float32, c []float32, ldc int) {
	gemmF32Cfg(m, n, k, a, lda, bpack, c, ldc, nil)
}

// gemmMCBlock resolves the tuned MC row-block size: the full m by default,
// else cfg.GemmMC rounded up to the register-tile height. Blocking only
// changes which LHS rows are packed together per scratch fill — every output
// cell still runs one k-ascending reduction, so results stay bit-identical.
func gemmMCBlock(m int, cfg *KernelConfig) int {
	if cfg == nil || cfg.GemmMC <= 0 || cfg.GemmMC >= m {
		return m
	}
	return gemmTiles(cfg.GemmMC, gemmMR) * gemmMR
}

// gemmF32Cfg is gemmF32 with tuned knobs: MC row blocking (bounds packing
// scratch, improves LHS locality for tall matrices) and per-call worker/grain
// limits on the N-tile loop.
func gemmF32Cfg(m, n, k int, a []float32, lda int, bpack []float32, c []float32, ldc int, cfg *KernelConfig) {
	if m <= 0 || n <= 0 {
		return
	}
	mc := gemmMCBlock(m, cfg)
	nt := gemmTiles(n, gemmNRF32)
	opts := cfg.gemmOpts()
	apP := getScratchF32(gemmTiles(mc, gemmMR) * gemmMR * k)
	ap := *apP
	for i0 := 0; i0 < m; i0 += mc {
		mb := min(mc, m-i0)
		packLHSF32(ap, a[i0*lda:], mb, k, lda)
		cb := c[i0*ldc:]
		// Ask before building the closure RunChunks needs: on the serial
		// answer the panel loop is a plain call.
		if workers := parallel.AcquireWorkers(nt, opts); workers > 1 {
			parallel.RunChunks(nt, workers, func(jtLo, jtHi int) {
				gemmPanelsF32(ap, bpack, cb, mb, n, k, ldc, jtLo, jtHi)
			})
		} else {
			gemmPanelsF32(ap, bpack, cb, mb, n, k, ldc, 0, nt)
		}
	}
	putScratchF32(apP)
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

// packLHSI32 packs m rows of k int32 elements into MR-interleaved panels.
func packLHSI32(dst, a []int32, m, k, lda int) {
	mt := gemmTiles(m, gemmMR)
	for it := 0; it < mt; it++ {
		base := it * k * gemmMR
		for i := 0; i < gemmMR; i++ {
			row := it*gemmMR + i
			if row >= m {
				for kk := 0; kk < k; kk++ {
					dst[base+kk*gemmMR+i] = 0
				}
				continue
			}
			src := a[row*lda : row*lda+k]
			for kk, v := range src {
				dst[base+kk*gemmMR+i] = v
			}
		}
	}
}

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

// gemmI32 is the memory-writing int32 driver (overwrite semantics), with the
// same N-tile parallelism as gemmF32.
func gemmI32(m, n, k int, a []int32, lda int, bpack []int32, c []int32, ldc int) {
	gemmI32Cfg(m, n, k, a, lda, bpack, c, ldc, nil)
}

// gemmI32Cfg is gemmI32 with tuned MC blocking and worker/grain limits.
func gemmI32Cfg(m, n, k int, a []int32, lda int, bpack []int32, c []int32, ldc int, cfg *KernelConfig) {
	if m <= 0 || n <= 0 {
		return
	}
	mc := gemmMCBlock(m, cfg)
	nt := gemmTiles(n, gemmNR)
	opts := cfg.gemmOpts()
	apP := getScratchI32(gemmTiles(mc, gemmMR) * gemmMR * k)
	ap := *apP
	for i0 := 0; i0 < m; i0 += mc {
		mb := min(mc, m-i0)
		packLHSI32(ap, a[i0*lda:], mb, k, lda)
		cb := c[i0*ldc:]
		// Ask before building the closure RunChunks needs: on the serial
		// answer the panel loop is a plain call.
		if workers := parallel.AcquireWorkers(nt, opts); workers > 1 {
			parallel.RunChunks(nt, workers, func(jtLo, jtHi int) {
				gemmPanelsI32(ap, bpack, cb, mb, n, k, ldc, jtLo, jtHi)
			})
		} else {
			gemmPanelsI32(ap, bpack, cb, mb, n, k, ldc, 0, nt)
		}
	}
	putScratchI32(apP)
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

type packedWeightF32 struct {
	groups, k int
	data      []float32 // groups · ceil(ocg/NRF32)·NRF32 · k
}

type packedWeightI32 struct {
	groups, k int
	zp        int32
	data      []int32
}

// groupPanelLen returns the packed length of one group's panels.
func groupPanelLen(ocg, k, nr int) int { return gemmTiles(ocg, nr) * nr * k }

func buildPackedWeightF32(w []float32, oc, k, groups int) *packedWeightF32 {
	ocg := oc / groups
	glen := groupPanelLen(ocg, k, gemmNRF32)
	pw := &packedWeightF32{groups: groups, k: k, data: make([]float32, groups*glen)}
	for g := 0; g < groups; g++ {
		packRHSF32(pw.data[g*glen:(g+1)*glen], w[g*ocg*k:], ocg, k, k)
	}
	return pw
}

// group returns the panel slice for group g.
func (pw *packedWeightF32) group(g, ocg int) []float32 {
	glen := groupPanelLen(ocg, pw.k, gemmNRF32)
	return pw.data[g*glen : (g+1)*glen]
}

func (pw *packedWeightI32) group(g, ocg int) []int32 {
	glen := groupPanelLen(ocg, pw.k, gemmNR)
	return pw.data[g*glen : (g+1)*glen]
}

// packRHSI32 packs n rows of k int32 elements into NR-interleaved panels.
func packRHSI32(dst, b []int32, n, k, ldb int) {
	nt := gemmTiles(n, gemmNR)
	for jt := 0; jt < nt; jt++ {
		base := jt * k * gemmNR
		for j := 0; j < gemmNR; j++ {
			row := jt*gemmNR + j
			if row >= n {
				for kk := 0; kk < k; kk++ {
					dst[base+kk*gemmNR+j] = 0
				}
				continue
			}
			src := b[row*ldb : row*ldb+k]
			for kk, v := range src {
				dst[base+kk*gemmNR+j] = v
			}
		}
	}
}

// packedConvWeightF32 returns the cached NR panels for a float weight tensor
// laid out as oc rows of k elements, split into groups.
func packedConvWeightF32(w *tensor.Tensor, oc, k, groups int) *packedWeightF32 {
	if v, ok := gemmWeightF32.get(w); ok {
		pw := v.(*packedWeightF32)
		if pw.groups == groups && pw.k == k {
			return pw
		}
		return buildPackedWeightF32(w.F32(), oc, k, groups)
	}
	pw := buildPackedWeightF32(w.F32(), oc, k, groups)
	gemmWeightF32.put(w, pw)
	return pw
}

func buildPackedWeightI32(w *tensor.Tensor, oc, k, groups int, zp int32) (*packedWeightI32, error) {
	rawP := getScratchI32(oc * k)
	raw := *rawP
	if err := rawMinusZp(raw, w, zp); err != nil {
		putScratchI32(rawP)
		return nil, err
	}
	ocg := oc / groups
	glen := groupPanelLen(ocg, k, gemmNR)
	pw := &packedWeightI32{groups: groups, k: k, zp: zp, data: make([]int32, groups*glen)}
	for g := 0; g < groups; g++ {
		packRHSI32(pw.data[g*glen:(g+1)*glen], raw[g*ocg*k:], ocg, k, k)
	}
	putScratchI32(rawP)
	return pw, nil
}

// packedConvWeightI32 returns the cached (raw − zero_point) NR panels for a
// quantized weight tensor.
func packedConvWeightI32(w *tensor.Tensor, oc, k, groups int, zp int32) (*packedWeightI32, error) {
	if v, ok := gemmWeightI32.get(w); ok {
		pw := v.(*packedWeightI32)
		if pw.groups == groups && pw.k == k && pw.zp == zp {
			return pw, nil
		}
		return buildPackedWeightI32(w, oc, k, groups, zp)
	}
	pw, err := buildPackedWeightI32(w, oc, k, groups, zp)
	if err != nil {
		return nil, err
	}
	gemmWeightI32.put(w, pw)
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
