//go:build !amd64

package topi

// gemmMicroF32 is the portable tile wherever there is no assembly one.
func gemmMicroF32(ap, bp []float32, acc *[gemmMR * gemmNR]float32) {
	gemmMicroF32Go(ap, bp, acc)
}

// gemmMicroI16 is the portable pair tile wherever there is no assembly one.
func gemmMicroI16(ap, bp []i16x2, acc *[gemmMR * gemmNR]int32) {
	gemmMicroI16Go(ap, bp, acc)
}
