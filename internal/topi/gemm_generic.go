//go:build !amd64

package topi

// gemmWidePanels: without assembly every f32 tile spans one panel.
const gemmWidePanels = 1

// gemmMicroF32 is the portable tile wherever there is no assembly one.
func gemmMicroF32(ap, bp []float32, acc *[gemmMR * gemmNR]float32) {
	gemmMicroF32Go(ap, bp, acc)
}

// gemmMicroF32Wide is the portable 4×8 tile: panels is always 1 here.
func gemmMicroF32Wide(panels int, ap, bp []float32, acc *[gemmMR * gemmWideNR]float32) {
	gemmMicroF32Go(ap, bp, (*[gemmMR * gemmNR]float32)(acc[:gemmMR*gemmNR]))
}

// gemmMicroI16 is the portable pair tile wherever there is no assembly one.
func gemmMicroI16(ap, bp []i16x2, acc *[gemmMR * gemmNR]int32) {
	gemmMicroI16Go(ap, bp, acc)
}

// gemmIndirectF32 is the portable indirect tile: panels is always 1 here.
func gemmIndirectF32(panels int, rows [][]float32, bp []float32, bias *[gemmWideNR]float32, lo, hi float32, acc *[gemmMR * gemmWideNR]float32) {
	gemmIndirectF32Go(rows, bp, bias, lo, hi, (*[gemmMR * gemmNR]float32)(acc[:gemmMR*gemmNR]))
}

// gemmIndirectI16 is the portable indirect pair tile.
func gemmIndirectI16(rows [][]i16x2, bp []i16x2, acc *[gemmMR * gemmNR]int32) {
	gemmIndirectI16Go(rows, bp, acc)
}

// mulAddRowVec: no vector body, mulAddRow's Go loop does every channel.
func mulAddRowVec[T float32 | int32](out, x, k []T) int { return 0 }

// requantVec: no vector body, requantRow's Go loop does every value.
func requantVec[T uint8 | int8](d []T, a, tile []int32, ratio float64, inZp, outZp, lo, hi int32) int {
	return 0
}
