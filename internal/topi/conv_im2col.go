package topi

import "repro/internal/tensor"

// im2col + GEMM convolution strategy. The direct kernel reduces each output
// cell through one accumulator, a chain of dependent adds with per-tap bounds
// checks and strided reads; materializing the patch matrix once per output
// row reduces the problem to a register-tiled GEMM over contiguous panels
// (gemm.go) that keeps a whole tile of independent accumulators in flight.
// Every convolution launch — nn.conv2d, qnn.conv2d, qnn.conv2d_fused —
// selects it through im2colPays, the one strategy rule.

// im2colThreshold is the MAC volume below which a layer is a couple of
// microseconds on either kernel and the GEMM path's fixed costs (two scratch
// buffers, the weight-panel lookup) are no longer paid back.
const im2colThreshold = 1 << 10

// im2colPays is the built-in strategy rule, for both element types, derived
// from BenchmarkConvStrategy (direct against im2col on one shape; DESIGN.md
// §11 has the table). Packing one output row's patches costs two copies per
// patch element per group and the GEMM repays that once per output channel of
// the group — so with a single channel per group (depthwise, or one filter)
// there is nothing to amortize over and nothing to vectorize across, and the
// direct kernel is level or ahead at every volume measured (1.6–1.9× on
// depthwise 3×3 from 83 k to 3.6 M MACs, 5–8× since depthwiseRow). With two
// or more channels the GEMM path is ahead from the threshold up: 2× at
// 1 024 MACs, 4–7× on the showcase models' 55 296–609 408 MAC float layers
// and 16× at 12.8 M on the SSE2 tile, 2–5× on the scalar int32 tile the pair
// tile replaced, which only moved im2col further ahead.
func im2colPays(out, weight tensor.Shape, groups int) bool {
	macs := int64(out.Elems()) * int64(weight[1]*weight[2]*weight[3])
	return weight[0]/groups >= 2 && macs >= im2colThreshold
}

// packCol packs output row job's patches for group grp straight into the
// gemmMR panel layout gemmPackedF32/I32 read, so the GEMM does not repack
// them: element kk = (ky·kw+kx)·icg + ic of patch ox lands at
// ap[((ox/gemmMR)·k + kk)·gemmMR + ox%gemmMR], and the rows past ow that
// fill the last panel are zero — exactly packPanels over the ow×k patch
// matrix. ap holds colLen(g) elements. Taps in the padding are zero; for
// quantized data, already widened to (raw − zp_in) k-pairs and packed over
// the pairs() geometry, that is the QNN pad-with-zero-point convention
// exactly.
//
// The panel is filled one tap at a time: a tap's icg channels of the
// panel's gemmMR patches are one contiguous gemmMR×icg block, interleaved
// from gemmMR source vectors.
func packCol[T panelElem](ap, din []T, g *convGeom, job, grp int) {
	h, w, c, kh, kw, icg := g.h, g.w, g.c, g.kh, g.kw, g.icg
	b, oy := job/g.oh, job%g.oh
	k := g.k()
	// With one group and no horizontal dilation a patch's kw taps of one
	// filter row are one run of kw·c input values, which the whole run
	// interleaves at once when all gemmMR patches have it inside the image.
	runs := g.groups == 1 && g.dw == 1
	var src [gemmMR][]T // the panel's patches' channels at one tap; nil: zero
	for t := 0; t*gemmMR < g.ow; t++ {
		panel := ap[t*k*gemmMR : (t+1)*k*gemmMR]
		for ky := 0; ky < kh; ky++ {
			iy := oy*g.sh - g.padT + ky*g.dh
			taps := panel[ky*kw*icg*gemmMR : (ky+1)*kw*icg*gemmMR]
			if iy < 0 || iy >= h {
				clear(taps)
				continue
			}
			inRow := din[(b*h+iy)*w*c+grp*icg:]
			if runs && (t+1)*gemmMR <= g.ow {
				ix0 := t*gemmMR*g.sw - g.padL
				if ix0 >= 0 && ix0+(gemmMR-1)*g.sw+kw <= w {
					for i := range src {
						ix := ix0 + i*g.sw
						src[i] = inRow[ix*c : (ix+kw)*c]
					}
					interleave4(taps, src[0], src[1], src[2], src[3])
					continue
				}
			}
			for kx := 0; kx < kw; kx++ {
				full := true
				for i := range src {
					ox := t*gemmMR + i
					ix := ox*g.sw - g.padL + kx*g.dw
					if ox >= g.ow || ix < 0 || ix >= w {
						src[i], full = nil, false
						continue
					}
					src[i] = inRow[ix*c : ix*c+icg]
				}
				blk := taps[kx*icg*gemmMR : (kx+1)*icg*gemmMR]
				if full {
					interleave4(blk, src[0], src[1], src[2], src[3])
					continue
				}
				for i, s := range src {
					if s == nil {
						panelClear(blk[i:], icg)
					} else {
						panelCopy(blk[i:], s)
					}
				}
			}
		}
	}
}

// interleave4 writes blk[ic·4+i] = s_i[ic]: four equal-length channel
// vectors into one panel block, a 4-element group per channel. It is kept
// out of line: inlined into packCol its loop counter lives on the stack.
//
//go:noinline
func interleave4[T panelElem](blk, s0, s1, s2, s3 []T) {
	n := len(s0)
	s1, s2, s3 = s1[:n], s2[:n], s3[:n]
	blk = blk[:n*gemmMR]
	for ic, v := range s0 {
		q := blk[ic*gemmMR : ic*gemmMR+gemmMR : ic*gemmMR+gemmMR]
		q[0], q[1], q[2], q[3] = v, s1[ic], s2[ic], s3[ic]
	}
}

// colLen is the length of one group's packed patch panels.
func colLen(g *convGeom) int { return gemmTiles(g.ow, gemmMR) * gemmMR * g.k() }

// panelCopy writes src to every gemmMR-th element of dst.
func panelCopy[T panelElem](dst, src []T) {
	for i, v := range src {
		dst[i*gemmMR] = v
	}
}

// panelClear zeroes n elements of dst, gemmMR apart.
func panelClear[T panelElem](dst []T, n int) {
	for i := 0; i < n; i++ {
		dst[i*gemmMR] = 0
	}
}
