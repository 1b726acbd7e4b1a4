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
func gemmMicroF32(ap, bp []float32, acc *[gemmMR * gemmNRF32]float32) {
	if useAVX {
		gemmMicroF32AVX(ap, bp, acc)
	} else {
		gemmMicroF32SSE2(ap, bp, acc)
	}
}

// gemmMicroF32AVX and gemmMicroF32SSE2 are the two tiles of gemm_amd64.s.
//
//go:noescape
func gemmMicroF32AVX(ap, bp []float32, acc *[gemmMR * gemmNRF32]float32)

//go:noescape
func gemmMicroF32SSE2(ap, bp []float32, acc *[gemmMR * gemmNRF32]float32)
