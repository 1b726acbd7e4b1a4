package topi

import (
	"unsafe"

	"repro/internal/cpuid"
)

// The kernels dispatch on cpuid.AVX (the YMM and AVX tiles) and cpuid.AVX2
// (the vector bodies of the float depthwise row's mulAddRow, of the
// quantized depthwise row, of the even-vector pair widening and of the
// requantize epilogue).

// gemmWidePanels is how many adjacent B panels the widest f32 tile spans:
// two (4×16, YMM) with AVX, else one. A 4×32 ZMM tile over four panels was
// built and measured on an AVX-512 host and left out: 1.3× the YMM tile on
// the emotion model's GEMMs, but ahead of the YMM-only build end to end in
// only half of the paired showcase runs (AVX-512 clocks down some parts).
var gemmWidePanels = func() int {
	if cpuid.AVX {
		return 2
	}
	return 1
}()

// gemmIndirectF32 computes one f32 tile (gemmIndirectF32Go's contract) over
// panels adjacent B panels (1 or 2, at most gemmWidePanels): row i of it,
// panels·8 columns, lands at acc[i·panels·8:], and bias holds panels·8
// values. bp holds the panels back to back, 8k values each. Two
// panels run the YMM tile; one the AVX tile where the CPU has one, else the
// SSE2 tile. All three are bit-identical to gemmIndirectF32Go.
//
//np:hotpath
func gemmIndirectF32(panels int, a []float32, base int, zero []float32, offs []int32, seg int, bp []float32, bias *[gemmWideNR]float32, lo, hi float32, acc *[gemmMR * gemmWideNR]float32) {
	narrow := (*[gemmMR * gemmNR]float32)(acc[:gemmMR*gemmNR])
	switch {
	case panels == 2:
		gemmIndirectF32YMM(a, base, zero, offs, seg, bp, bias, lo, hi, acc)
	case cpuid.AVX:
		gemmIndirectF32AVX(a, base, zero, offs, seg, bp, bias, lo, hi, narrow)
	default:
		gemmIndirectF32SSE2(a, base, zero, offs, seg, bp, bias, lo, hi, narrow)
	}
}

// gemmIndirectF32YMM, gemmIndirectF32AVX and gemmIndirectF32SSE2 are the
// f32 tiles of gemm_amd64.s. Each reads its table's runs and bp's k rows,
// and nothing past them — with no bounds check, so the table must have been
// prepared for a's shape: the YMM tile's second panel starts at
// bp[len(bp)/2], so bp must hold exactly the two panels.
//
//go:noescape
func gemmIndirectF32YMM(a []float32, base int, zero []float32, offs []int32, seg int, bp []float32, bias *[gemmWideNR]float32, lo, hi float32, acc *[gemmMR * gemmWideNR]float32)

//go:noescape
func gemmIndirectF32AVX(a []float32, base int, zero []float32, offs []int32, seg int, bp []float32, bias *[gemmWideNR]float32, lo, hi float32, acc *[gemmMR * gemmNR]float32)

//go:noescape
func gemmIndirectF32SSE2(a []float32, base int, zero []float32, offs []int32, seg int, bp []float32, bias *[gemmWideNR]float32, lo, hi float32, acc *[gemmMR * gemmNR]float32)

// gemmIndirectI16 computes one 4×8 tile of int32 sums (gemmIndirectI16Go's
// contract) by the PMADDWD body. It is the amd64 baseline, so there is
// nothing to test for.
//
//np:hotpath
func gemmIndirectI16(a []i16x2, base int, zero []i16x2, offs []int32, seg int, bp []i16x2, acc *[gemmMR * gemmNR]int32) {
	gemmIndirectI16SSE2(a, base, zero, offs, seg, bp, acc)
}

// gemmIndirectI16SSE2 is the PMADDWD tile of gemm_amd64.s.
//
//go:noescape
func gemmIndirectI16SSE2(a []i16x2, base int, zero []i16x2, offs []int32, seg int, bp []i16x2, acc *[gemmMR * gemmNR]int32)

// mulAddRowVec runs mulAddRow's out[o] += x[o]·k[o] over the leading
// multiple of eight channels in YMM vectors where the CPU has AVX2, and
// returns how many it did; mulAddRow's Go loop does the rest. x and k are
// at least len(out) long.
func mulAddRowVec(out, x, k []float32) int {
	n := len(out) &^ 7
	if !cpuid.AVX2 || n == 0 {
		return 0
	}
	mulAddRowF32AVX2(unsafe.Pointer(&out[0]), unsafe.Pointer(&x[0]), unsafe.Pointer(&k[0]), n)
	return n
}

// mulAddRowF32AVX2 is mulAddRowVec's body in gemm_amd64.s; n is a positive
// multiple of 8.
//
//go:noescape
func mulAddRowF32AVX2(out, x, k unsafe.Pointer, n int)

// depthwiseRowVec runs depthwiseRowQnn over the leading multiple of eight
// channels of every pixel where the CPU has AVX2, and returns how many it
// did; depthwiseRowQnnGo does the rest. The data's signedness picks the
// body: uint8 widens by zero extension, int8 by sign extension.
//
//np:hotpath
func depthwiseRowVec[T uint8 | int8](row []int32, img []T, base int, zero []T, offs, cols []int32, step, taps, c int, wp []i16x2, zp int32) int {
	n := c &^ 7
	if !cpuid.AVX2 || n == 0 || len(cols) == 0 {
		return 0
	}
	_ = row[len(cols)*c-1]
	pr, pi, pz, pw := unsafe.Pointer(&row[0]), unsafe.Pointer(&img[0]), unsafe.Pointer(&zero[0]), unsafe.Pointer(&wp[0])
	if ^T(0) < 0 {
		depthwiseRowI8AVX2(pr, pi, base, pz, offs, cols, step, taps, n, c, pw, zp)
	} else {
		depthwiseRowU8AVX2(pr, pi, base, pz, offs, cols, step, taps, n, c, pw, zp)
	}
	return n
}

// depthwiseRowU8AVX2 and depthwiseRowI8AVX2 are depthwiseRowVec's two
// bodies in gemm_amd64.s, over channels [0, n) of rows of c, n a positive
// multiple of 8 and taps even. They read the table's runs and nothing past
// them, with no bounds check: the table must have been prepared for img's
// shape.
//
//go:noescape
func depthwiseRowU8AVX2(row, img unsafe.Pointer, base int, zero unsafe.Pointer, offs, cols []int32, step, taps, n, c int, wp unsafe.Pointer, zp int32)

//go:noescape
func depthwiseRowI8AVX2(row, img unsafe.Pointer, base int, zero unsafe.Pointer, offs, cols []int32, step, taps, n, c int, wp unsafe.Pointer, zp int32)

// widenPairsVec writes the leading multiple of sixteen values of the
// even-length run src, widened to int16 minus zp, into dst's k-pairs where
// the CPU has AVX2, and returns how many values it did; widenEvenPairs does
// the rest.
//
//np:hotpath
func widenPairsVec[T uint8 | int8](dst []i16x2, src []T, zp int32) int {
	n := len(src) &^ 15
	if !cpuid.AVX2 || n == 0 {
		return 0
	}
	_ = dst[n/2-1]
	if ^T(0) < 0 {
		widenPairsI8AVX2(unsafe.Pointer(&dst[0]), unsafe.Pointer(&src[0]), n, zp)
	} else {
		widenPairsU8AVX2(unsafe.Pointer(&dst[0]), unsafe.Pointer(&src[0]), n, zp)
	}
	return n
}

// widenPairsU8AVX2 and widenPairsI8AVX2 are widenPairsVec's two bodies in
// gemm_amd64.s; n is a positive multiple of 16.
//
//go:noescape
func widenPairsU8AVX2(dst, src unsafe.Pointer, n int, zp int32)

//go:noescape
func widenPairsI8AVX2(dst, src unsafe.Pointer, n int, zp int32)

// requantVec runs requantRow over the leading multiple of eight values of
// a, a block of whole output pixels, in YMM vectors where the CPU has AVX2,
// and returns how many it did. tile is the bias repeated to a multiple of
// eight values (zeroTile for none); the body reads it from its start and
// wraps to its start at its end, so value i meets tile[i % len(tile)].
//
//np:hotpath
func requantVec[T uint8 | int8](d []T, a, tile []int32, ratio float64, inZp, outZp, lo, hi int32) int {
	n := len(a) &^ 7
	if !cpuid.AVX2 || n == 0 {
		return 0
	}
	_ = d[n-1]
	requantAVX2(unsafe.Pointer(&d[0]), unsafe.Pointer(&a[0]), unsafe.Pointer(&tile[0]), n, len(tile), ratio, inZp, outZp, lo, hi)
	return n
}

// requantAVX2 is requantVec's body in gemm_amd64.s, for either 8-bit
// dtype; n and tileLen are positive multiples of 8.
//
//go:noescape
func requantAVX2(d, a, tile unsafe.Pointer, n, tileLen int, ratio float64, inZp, outZp, lo, hi int32)
