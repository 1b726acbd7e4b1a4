//go:build !amd64

package topi

// gemmMicroF32 is the portable tile wherever there is no assembly one.
func gemmMicroF32(ap, bp []float32, acc *[gemmMR * gemmNRF32]float32) {
	gemmMicroF32Go(ap, bp, acc)
}
