//go:build !amd64

package topi

// gemmWidePanels: without assembly every f32 tile spans one panel.
const gemmWidePanels = 1

// gemmIndirectF32 is the portable tile: panels is always 1 here.
func gemmIndirectF32(panels int, a []float32, base int, zero []float32, offs []int32, seg int, bp []float32, bias *[gemmWideNR]float32, lo, hi float32, acc *[gemmMR * gemmWideNR]float32) {
	gemmIndirectF32Go(a, base, zero, offs, seg, bp, bias, lo, hi, (*[gemmMR * gemmNR]float32)(acc[:gemmMR*gemmNR]))
}

// gemmIndirectI16 is the portable pair tile.
func gemmIndirectI16(a []i16x2, base int, zero []i16x2, offs []int32, seg int, bp []i16x2, acc *[gemmMR * gemmNR]int32) {
	gemmIndirectI16Go(a, base, zero, offs, seg, bp, acc)
}

// mulAddRowVec: no vector body, mulAddRow's Go loop does every channel.
func mulAddRowVec(out, x, k []float32) int { return 0 }

// depthwiseRowVec: no vector body, depthwiseRowQnnGo does every channel.
func depthwiseRowVec[T uint8 | int8](row []int32, img []T, base int, zero []T, offs, cols []int32, step, taps, c int, wp []i16x2, zp int32) int {
	return 0
}

// widenPairsVec: no vector body, widenEvenPairs does every value.
func widenPairsVec[T uint8 | int8](dst []i16x2, src []T, zp int32) int { return 0 }

// requantVec: no vector body, requantRow's Go loop does every value.
func requantVec[T uint8 | int8](d []T, a, tile []int32, ratio float64, inZp, outZp, lo, hi int32) int {
	return 0
}
