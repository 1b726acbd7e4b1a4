package topi

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cpuid"
	"repro/internal/tensor"
)

// requantBoundaryAccs returns accumulators that exercise requantize at ratio
// and inZp: every int32 in a band of ±3 around each rounding boundary (where
// (x − inZp)·ratio crosses k + 0.5) for outputs k of both signs past the
// 8-bit range, and the int32 extremes, whose bias and zero-point arithmetic
// wraps and whose rescaled value overflows the conversion at large ratios.
func requantBoundaryAccs(ratio float64, inZp int32) []int32 {
	var accs []int32
	for k := -300; k <= 300; k += 7 {
		for _, half := range []float64{0.5, -0.5} {
			x := (float64(k)+half)/ratio + float64(inZp)
			if x < math.MinInt32+8 || x > math.MaxInt32-8 {
				continue
			}
			for d := int32(-3); d <= 3; d++ {
				accs = append(accs, int32(x)+d)
			}
		}
	}
	return append(accs, math.MinInt32, math.MinInt32+1, math.MaxInt32, math.MaxInt32-1, 0, -1, 1)
}

// requantPixelOracle is the epilogue's requantize as requantRow's Go loop
// runs it pixel by pixel with the untiled bias.
func requantPixelOracle[T uint8 | int8](d []T, acc, bias []int32, channels int, ratio float64, inZp, outZp, lo, hi int32) {
	for off := 0; off < len(acc); off += channels {
		requantRow(d[off:off+channels], acc[off:off+channels], bias, ratio, inZp, outZp, lo, hi)
	}
}

// checkRequantVec runs one dtype's requantize over blocks of whole pixels
// of every length up to len(accs), stepping by at least eight values: the
// epilogue row (requantVec plus requantRow's runs over the tiled bias)
// against the per-pixel oracle, and requantVec alone, which must take the
// block's leading multiple of eight values on an AVX2 host.
func checkRequantVec[T uint8 | int8](t *testing.T, what string, accs []int32, bias *tensor.Tensor, channels int, ratio float64, inZp, outZp, lo, hi int32) {
	t.Helper()
	n := len(accs) / channels * channels
	accs = accs[:n]
	e := epilogue{channels: channels, ratio: ratio, inZp: inZp, outZp: outZp}
	var rawBias []int32
	tile := zeroTile[:]
	if bias != nil {
		rawBias, tile = bias.I32(), tiledBias(bias)
		e.bias, e.tile = rawBias, tile
	}
	want, got, vec := make([]T, n), make([]T, n), make([]T, n)
	requantPixelOracle(want, accs, rawBias, channels, ratio, inZp, outZp, lo, hi)
	for pixels := 0; pixels*channels <= n; pixels += max(1, 8/channels) {
		m := pixels * channels
		epilogueRow(&e, got[:m], accs[:m], lo, hi)
		for i := 0; i < m; i++ {
			if got[i] != want[i] {
				t.Fatalf("%s, block of %d: out[%d] = %d, Go loop %d (acc %d, channel %d)", what, m, i, got[i], want[i], accs[i], i%channels)
			}
		}
		done := requantVec(vec[:m], accs[:m], tile, ratio, inZp, outZp, lo, hi)
		if cpuid.AVX2 && done != m&^7 {
			t.Fatalf("%s: requantVec did %d of %d values on an AVX2 host, want %d", what, done, m, m&^7)
		}
		for i := 0; i < done; i++ {
			if vec[i] != want[i] {
				t.Fatalf("%s, block of %d: vector out[%d] = %d, Go loop %d (acc %d)", what, m, i, vec[i], want[i], accs[i])
			}
		}
	}
}

// TestRequantVecMatchesGoLoop pins the vector requantize body against
// requantRow's Go loop for uint8 and int8 outputs, with bias and without:
// every int32 in a band around each rounding boundary at several ratios,
// both signs of both zero points, the int32 extremes (wrap and conversion
// overflow), channel counts 1–17 and 64, block lengths that are not a
// multiple of eight, and clamp bounds inside the dtype's range (a folded
// activation's). Off AVX2 it checks the Go runs over the tiled bias alone.
func TestRequantVecMatchesGoLoop(t *testing.T) {
	channelCounts := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 64}
	for _, ratio := range []float64{0.5, 0.25, 0.0137, 1.0 / 3, 3.75, 70000} {
		for _, zp := range [][2]int32{{0, 0}, {3, -5}, {-128, 7}, {121, -128}} {
			accs := requantBoundaryAccs(ratio, zp[0])
			for _, c := range channelCounts {
				var bias *tensor.Tensor
				for _, withBias := range []bool{false, true} {
					if withBias {
						bias = tensor.New(tensor.Int32, tensor.Shape{c})
						for i := range bias.I32() {
							bias.I32()[i] = int32(i*37%201-100) * 13
						}
						bias.I32()[0] = math.MaxInt32
						if c > 1 {
							bias.I32()[c-1] = math.MinInt32
						}
					}
					what := fmt.Sprintf("ratio %v zp %v channels %d bias %v", ratio, zp, c, withBias)
					checkRequantVec[uint8](t, "uint8 "+what, accs, bias, c, ratio, zp[0], zp[1], 0, 255)
					checkRequantVec[int8](t, "int8 "+what, accs, bias, c, ratio, zp[0], zp[1], -128, 127)
					checkRequantVec[uint8](t, "uint8 clamped "+what, accs, bias, c, ratio, zp[0], zp[1], 7, 49)
					checkRequantVec[int8](t, "int8 clamped "+what, accs, bias, c, ratio, zp[0], zp[1], -5, 38)
				}
			}
		}
	}
}

// TestActivationFoldIsProved: the relu and relu6 tables of both dtypes are
// clamps and fold into the requantize bounds; a table with one entry
// perturbed is refused, and the epilogue then maps through it (lutRow), as
// the per-element loop does.
func TestActivationFoldIsProved(t *testing.T) {
	for _, fd := range fusedDTypes {
		lo := fd.rawMin
		for _, act := range []string{"relu", "relu6"} {
			q := tensor.QuantParams{Scale: 0.05, ZeroPoint: int32(fd.zpOut)}
			lut, err := buildActivationLUT(act, fd.dt, &q)
			if err != nil {
				t.Fatal(err)
			}
			if lut == nil || !lut.clamp {
				t.Fatalf("%s %s: table %v, want a folded clamp", fd.dt, act, lut)
			}
			lut.tab[100]++
			if lut.isClamp() {
				t.Fatalf("%s %s: a table with entry 100 perturbed still reads as a clamp", fd.dt, act)
			}
			lut.clamp = false
			e := epilogue{channels: 4, ratio: 1, dt: fd.dt, lut: lut}
			acc := make([]int32, 256)
			for i := range acc {
				acc[i] = lo + int32(i)
			}
			got, want := tensor.New(fd.dt, tensor.Shape{256}), tensor.New(fd.dt, tensor.Shape{256})
			e.apply(got, acc, 0)
			applyPerElement(&e, want, acc, 0)
			for i := range acc {
				if got.GetRaw(i) != want.GetRaw(i) {
					t.Fatalf("%s %s perturbed: out[%d] = %d, per-element %d", fd.dt, act, i, got.GetRaw(i), want.GetRaw(i))
				}
			}
			if got.GetRaw(100) != lut.tab[100] {
				t.Fatalf("%s %s perturbed: out[100] = %d, the table says %d: lutRow did not run", fd.dt, act, got.GetRaw(100), lut.tab[100])
			}
		}
	}
}
