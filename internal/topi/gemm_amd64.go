package topi

// gemmMicroF32 computes one 4×8 f32 register tile over the full K extent:
// acc[i·8+j] = Σ_kk ap[kk·4+i]·bp[kk·8+j], k = len(ap)/4, bp at least 8k
// long. Implemented in gemm_amd64.s; bit-identical to gemmMicroF32Go.
//
//go:noescape
func gemmMicroF32(ap, bp []float32, acc *[gemmMR * gemmNRF32]float32)
