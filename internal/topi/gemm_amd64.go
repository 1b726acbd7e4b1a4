package topi

// useAVX reports whether this CPU runs the YMM tile: it has AVX and the OS
// saves YMM state. Read once; nothing sets it.
var useAVX = cpuHasAVX()

// cpuHasAVX is the CPUID/XGETBV test, in gemm_amd64.s.
func cpuHasAVX() bool

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

// gemmMicroF32AVX and gemmMicroF32SSE2 are the two tiles of gemm_amd64.s.
//
//go:noescape
func gemmMicroF32AVX(ap, bp []float32, acc *[gemmMR * gemmNR]float32)

//go:noescape
func gemmMicroF32SSE2(ap, bp []float32, acc *[gemmMR * gemmNR]float32)

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
