package topi

import (
	"repro/internal/parallel"
	"repro/internal/relay"
	"repro/internal/tensor"
)

// im2col + GEMM convolution path. The direct kernel reduces each output cell
// through one accumulator, a chain of dependent adds with per-tap bounds
// checks and strided reads; materializing the patch matrix once per output
// row reduces the problem to a register-tiled GEMM over contiguous panels
// (gemm.go) that keeps a whole tile of independent accumulators in flight.
// The dispatcher in conv.go selects this path when im2colPays.

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

// conv2DF32Im2col computes the same result as the direct kernel: each output
// row's patches are packed into a col matrix (one row per output pixel,
// k = kh·kw·icg contiguous elements), then multiplied against the cached
// weight panels by the blocked GEMM.
func conv2DF32Im2col(data, weight *tensor.Tensor, p conv2dParams, out *relay.TensorType, dstBuf *tensor.Tensor, cfg *KernelConfig) *tensor.Tensor {
	res := output(dstBuf, out)
	n := data.Shape[0]
	h, w, c := data.Shape[1], data.Shape[2], data.Shape[3]
	oc, kh, kw, icg := weight.Shape[0], weight.Shape[1], weight.Shape[2], weight.Shape[3]
	oh, ow := out.Shape[1], out.Shape[2]
	ocg := oc / p.groups
	k := kh * kw * icg

	din := data.F32()
	dout := res.F32()
	pw := packedConvWeightF32(weight, oc, k, p.groups)

	// Parallelize over (batch × output row); each worker packs one row of
	// output pixels into a col buffer and GEMMs it against every group's
	// weight panels. Nested GEMM tile parallelism degrades to serial here
	// because this loop already holds the worker-budget tokens.
	parallel.ForChunkedOpts(n*oh, cfg.chunkOpts(), func(lo, hi int) {
		colP := getScratchF32(ow * k) // one output row's patches, per group
		defer putScratchF32(colP)
		col := *colP
		for job := lo; job < hi; job++ {
			b := job / oh
			oy := job % oh
			for g := 0; g < p.groups; g++ {
				// Pack: col[ox*k + (ky*kw+kx)*icg + ic]
				for ox := 0; ox < ow; ox++ {
					base := ox * k
					for ky := 0; ky < kh; ky++ {
						iy := oy*p.sh - p.pad[0] + ky*p.dh
						rowBase := base + ky*kw*icg
						if iy < 0 || iy >= h {
							zero(col[rowBase : rowBase+kw*icg])
							continue
						}
						for kx := 0; kx < kw; kx++ {
							ix := ox*p.sw - p.pad[1] + kx*p.dw
							dst := col[rowBase+kx*icg : rowBase+(kx+1)*icg]
							if ix < 0 || ix >= w {
								zero(dst)
								continue
							}
							src := din[((b*h+iy)*w+ix)*c+g*icg:]
							copy(dst, src[:icg])
						}
					}
				}
				gemmF32Cfg(ow, ocg, k, col, k, pw.group(g, ocg),
					dout[((b*oh+oy)*ow)*oc+g*ocg:], oc, cfg)
			}
		}
	})
	return res
}

// conv2DQnnIm2col is the quantized analogue: the data tensor is widened once
// into (raw − zp_in) int32 scratch, packed per output row, and reduced by the
// int32 GEMM against cached (raw − zp_k) weight panels. Integer accumulation
// is associative, so the result is bitwise identical to the direct kernel.
func conv2DQnnIm2col(data, weight *tensor.Tensor, p conv2dParams, zpIn, zpK int32, out *relay.TensorType, dstBuf *tensor.Tensor, cfg *KernelConfig) (*tensor.Tensor, error) {
	res := output(dstBuf, out)
	n := data.Shape[0]
	h, w, c := data.Shape[1], data.Shape[2], data.Shape[3]
	oc, kh, kw, icg := weight.Shape[0], weight.Shape[1], weight.Shape[2], weight.Shape[3]
	oh, ow := out.Shape[1], out.Shape[2]
	ocg := oc / p.groups
	k := kh * kw * icg

	pw, err := packedConvWeightI32(weight, oc, k, p.groups, zpK)
	if err != nil {
		return nil, err
	}
	dinP := getScratchI32(data.Elems())
	din := *dinP
	if err := rawMinusZp(din, data, zpIn); err != nil {
		putScratchI32(dinP)
		return nil, err
	}
	dout := res.I32()

	parallel.ForChunkedOpts(n*oh, cfg.chunkOpts(), func(lo, hi int) {
		colP := getScratchI32(ow * k)
		defer putScratchI32(colP)
		col := *colP
		for job := lo; job < hi; job++ {
			b := job / oh
			oy := job % oh
			for g := 0; g < p.groups; g++ {
				packColI32(col, din, p, b, oy, g, h, w, c, kh, kw, icg, ow, k)
				gemmI32Cfg(ow, ocg, k, col, k, pw.group(g, ocg),
					dout[((b*oh+oy)*ow)*oc+g*ocg:], oc, cfg)
			}
		}
	})
	putScratchI32(dinP)
	return res, nil
}

// packColI32 packs one output row's im2col patches for group g from the
// pre-widened (raw − zp_in) data into col[ox*k + (ky*kw+kx)*icg + ic].
// Padding contributes (zp_in − zp_in) = 0, so zero-filling the
// pre-subtracted col matches the QNN pad-with-zp convention exactly.
func packColI32(col, din []int32, p conv2dParams, b, oy, g, h, w, c, kh, kw, icg, ow, k int) {
	for ox := 0; ox < ow; ox++ {
		base := ox * k
		for ky := 0; ky < kh; ky++ {
			iy := oy*p.sh - p.pad[0] + ky*p.dh
			rowBase := base + ky*kw*icg
			if iy < 0 || iy >= h {
				zeroI32(col[rowBase : rowBase+kw*icg])
				continue
			}
			for kx := 0; kx < kw; kx++ {
				ix := ox*p.sw - p.pad[1] + kx*p.dw
				dst := col[rowBase+kx*icg : rowBase+(kx+1)*icg]
				if ix < 0 || ix >= w {
					zeroI32(dst)
					continue
				}
				src := din[((b*h+iy)*w+ix)*c+g*icg:]
				copy(dst, src[:icg])
			}
		}
	}
}

func zero(s []float32) {
	for i := range s {
		s[i] = 0
	}
}

func zeroI32(s []int32) {
	for i := range s {
		s[i] = 0
	}
}
