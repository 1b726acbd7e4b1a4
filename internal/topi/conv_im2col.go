package topi

import "repro/internal/tensor"

// im2col + GEMM convolution strategy. The direct kernel reduces each output
// cell through one accumulator, a chain of dependent adds with per-tap bounds
// checks and strided reads; materializing the patch matrix once per output
// row reduces the problem to a register-tiled GEMM over contiguous panels
// (gemm.go) that keeps a whole tile of independent accumulators in flight.
// Every convolution launch — nn.conv2d, qnn.conv2d, qnn.conv2d_fused —
// selects it through convUseIm2col.

// im2colThreshold is the MAC volume below which a layer is a couple of
// microseconds on either kernel and the GEMM path's fixed costs (two scratch
// buffers, the weight-cache lookup) are no longer paid back.
const im2colThreshold = 1 << 10

// im2colPays is the built-in strategy rule, for both element types, derived
// from BenchmarkConvStrategy (direct against im2col on one shape; DESIGN.md
// §11 has the table). Packing one output row's patches costs two copies per
// patch element per group and the GEMM repays that once per output channel of
// the group — so with a single channel per group (depthwise, or one filter)
// there is nothing to amortize over and nothing to vectorize across, and the
// direct kernel is level or ahead at every volume measured (1.6–1.9× on
// depthwise 3×3 from 83 k to 3.6 M MACs). With two or more channels the GEMM
// path is ahead from the threshold up: 2× at 1 024 MACs, 4–7× on the showcase
// models' 55 296–609 408 MAC float layers and 16× at 12.8 M on the SSE2 tile,
// 2–5× on the scalar int32 tile.
func im2colPays(out, weight tensor.Shape, groups int) bool {
	macs := int64(out.Elems()) * int64(weight[1]*weight[2]*weight[3])
	return weight[0]/groups >= 2 && macs >= im2colThreshold
}

// packCol packs output row job's patches for group grp into
// col[ox·k + (ky·kw+kx)·icg + ic]. Taps in the padding are zero; for
// quantized data, already widened to (raw − zp_in), that is the QNN
// pad-with-zero-point convention exactly.
func packCol[T float32 | int32](col, din []T, g *convGeom, job, grp int) {
	h, w, c, kh, kw, icg := g.h, g.w, g.c, g.kh, g.kw, g.icg
	b, oy := job/g.oh, job%g.oh
	k := g.k()
	for ox := 0; ox < g.ow; ox++ {
		for ky := 0; ky < kh; ky++ {
			iy := oy*g.sh - g.padT + ky*g.dh
			rowBase := ox*k + ky*kw*icg
			if iy < 0 || iy >= h {
				clear(col[rowBase : rowBase+kw*icg])
				continue
			}
			for kx := 0; kx < kw; kx++ {
				ix := ox*g.sw - g.padL + kx*g.dw
				dst := col[rowBase+kx*icg : rowBase+(kx+1)*icg]
				if ix < 0 || ix >= w {
					clear(dst)
					continue
				}
				src := din[((b*h+iy)*w+ix)*c+grp*icg:]
				copy(dst, src[:icg])
			}
		}
	}
}
