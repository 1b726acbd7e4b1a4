package topi

import "unsafe"

// The CPU features the kernels dispatch on, read once at init by CPUID and
// XGETBV (cpuFeatures, gemm_amd64.s); nothing sets them. useAVX: the CPU has
// AVX and the OS saves YMM state (the YMM and AVX tiles). useAVX2: also
// AVX2 (mulAddRow's vector body). useAVX512: also AVX-512F, and the OS saves
// the ZMM state; no kernel runs on it (gemmWidePanels says why), the test
// against /proc/cpuinfo pins it with the others.
var useAVX, useAVX2, useAVX512 = cpuFeatures()

// cpuFeatures is the CPUID/XGETBV test, in gemm_amd64.s.
func cpuFeatures() (avx, avx2, avx512 bool)

// gemmWidePanels is how many adjacent B panels the widest f32 tile spans:
// two (4×16, YMM) with AVX, else one. A 4×32 ZMM tile over four panels was
// built and measured on an AVX-512 host and left out: 1.3× the YMM tile on
// the emotion model's GEMMs, but ahead of the YMM-only build end to end in
// only half of the paired showcase runs (AVX-512 clocks down some parts).
var gemmWidePanels = func() int {
	if useAVX {
		return 2
	}
	return 1
}()

// gemmMicroF32 computes one 4×8 f32 register tile over the full K extent:
// acc[i·8+j] = Σ_kk ap[kk·4+i]·bp[kk·8+j], k = len(ap)/4, bp at least 8k
// long. It runs the AVX tile where the CPU has one and the SSE2 tile
// elsewhere; both are bit-identical to gemmMicroF32Go.
func gemmMicroF32(ap, bp []float32, acc *[gemmMR * gemmNR]float32) {
	if useAVX {
		gemmMicroF32AVX(ap, bp, acc)
	} else {
		gemmMicroF32SSE2(ap, bp, acc)
	}
}

// gemmMicroF32Wide computes the tile over panels adjacent B panels (1 or
// 2, at most gemmWidePanels): row i of it, panels·8 columns, lands at
// acc[i·panels·8:]. bp holds the panels back to back, 8k values each.
//
//np:hotpath
func gemmMicroF32Wide(panels int, ap, bp []float32, acc *[gemmMR * gemmWideNR]float32) {
	if panels == 2 {
		gemmMicroF32YMM(ap, bp[:2*gemmNR*(len(ap)/gemmMR)], acc)
	} else {
		gemmMicroF32(ap, bp, (*[gemmMR * gemmNR]float32)(acc[:gemmMR*gemmNR]))
	}
}

// gemmMicroF32AVX, gemmMicroF32SSE2 and gemmMicroF32YMM are the tiles of
// gemm_amd64.s.
//
//go:noescape
func gemmMicroF32AVX(ap, bp []float32, acc *[gemmMR * gemmNR]float32)

//go:noescape
func gemmMicroF32SSE2(ap, bp []float32, acc *[gemmMR * gemmNR]float32)

//go:noescape
func gemmMicroF32YMM(ap, bp []float32, acc *[gemmMR * gemmWideNR]float32)

// gemmMicroI16 computes one 4×8 tile of int32 sums over kp = len(ap)/4
// k-pairs: acc[i·8+j] = Σ_p ap[p·4+i]·bp[p·8+j], each term a pair
// product-sum. The SSE2 tile is the amd64 baseline, so there is nothing to
// test for; it is bit-identical to gemmMicroI16Go.
//
//np:hotpath
func gemmMicroI16(ap, bp []i16x2, acc *[gemmMR * gemmNR]int32) {
	gemmMicroI16SSE2(ap, bp, acc)
}

// gemmMicroI16SSE2 is the PMADDWD tile of gemm_amd64.s.
//
//go:noescape
func gemmMicroI16SSE2(ap, bp []i16x2, acc *[gemmMR * gemmNR]int32)

// mulAddRowVec runs mulAddRow's out[o] += x[o]·k[o] over the leading
// multiple of eight channels in YMM vectors where the CPU has AVX2, and
// returns how many it did; mulAddRow's Go loop does the rest. x and k are
// at least len(out) long.
func mulAddRowVec[T float32 | int32](out, x, k []T) int {
	n := len(out) &^ 7
	if !useAVX2 || n == 0 {
		return 0
	}
	po, px, pk := unsafe.Pointer(&out[0]), unsafe.Pointer(&x[0]), unsafe.Pointer(&k[0])
	if _, f32 := any(out[0]).(float32); f32 {
		mulAddRowF32AVX2(po, px, pk, n)
	} else {
		mulAddRowI32AVX2(po, px, pk, n)
	}
	return n
}

// mulAddRowF32AVX2 and mulAddRowI32AVX2 are mulAddRowVec's two bodies in
// gemm_amd64.s; n is a positive multiple of 8.
//
//go:noescape
func mulAddRowF32AVX2(out, x, k unsafe.Pointer, n int)

//go:noescape
func mulAddRowI32AVX2(out, x, k unsafe.Pointer, n int)
