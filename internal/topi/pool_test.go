package topi

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/relay"
	"repro/internal/tensor"
)

// maxPoolPerChannel is the float max-pool loop maxPoolRowF32 replaced: one
// channel at a time, the window in (ky, kx) order, best starting at −Inf
// and taking v when v > best.
func maxPoolPerChannel(src []float32, n, h, w, c, oh, ow int, p poolParams) []float32 {
	dst := make([]float32, n*oh*ow*c)
	for b := 0; b < n; b++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				for ch := 0; ch < c; ch++ {
					best := float32(math.Inf(-1))
					for ky := 0; ky < p.kh; ky++ {
						iy := oy*p.sh - p.pad[0] + ky
						if iy < 0 || iy >= h {
							continue
						}
						for kx := 0; kx < p.kw; kx++ {
							ix := ox*p.sw - p.pad[1] + kx
							if ix < 0 || ix >= w {
								continue
							}
							if v := src[((b*h+iy)*w+ix)*c+ch]; v > best {
								best = v
							}
						}
					}
					dst[((b*oh+oy)*ow+ox)*c+ch] = best
				}
			}
		}
	}
	return dst
}

// TestMaxPoolF32MatchesPerChannelLoop pins the channel-vector max-pool to
// the per-channel loop bit for bit: with and without padding, stride equal
// to and different from the kernel, random data with NaN, ±Inf, ±0 and
// denormals mixed in, and crafted windows where NaN comes first or mid-way
// and +0/−0 tie in both orders (the first seen must stay).
func TestMaxPoolF32MatchesPerChannelLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	negZero := float32(math.Copysign(0, -1))
	nan := math.Float32frombits(0x7fc00077)
	for _, tc := range []struct {
		n, h, w, c, kh, kw, sh, sw int
		pad                        [4]int
	}{
		{1, 4, 4, 1, 2, 2, 2, 2, [4]int{}},
		{1, 8, 8, 5, 2, 2, 2, 2, [4]int{}},
		{2, 7, 9, 3, 3, 3, 2, 2, [4]int{1, 1, 1, 1}},
		{1, 9, 9, 8, 3, 3, 1, 1, [4]int{1, 1, 1, 1}},
		{1, 10, 7, 4, 3, 2, 2, 3, [4]int{0, 1, 2, 1}},
		{1, 6, 6, 16, 2, 3, 1, 2, [4]int{2, 0, 0, 2}},
	} {
		p := poolParams{kh: tc.kh, kw: tc.kw, sh: tc.sh, sw: tc.sw, pad: tc.pad}
		oh := (tc.h+tc.pad[0]+tc.pad[2]-tc.kh)/tc.sh + 1
		ow := (tc.w+tc.pad[1]+tc.pad[3]-tc.kw)/tc.sw + 1
		attrs := relay.Attrs{"pool_size": []int{tc.kh, tc.kw}, "strides": []int{tc.sh, tc.sw},
			"padding": []int{tc.pad[0], tc.pad[1], tc.pad[2], tc.pad[3]}}
		for round := 0; round < 4; round++ {
			t.Run(fmt.Sprintf("%dx%dx%d_k%dx%d_s%dx%d_p%v/%d", tc.h, tc.w, tc.c, tc.kh, tc.kw, tc.sh, tc.sw, tc.pad, round), func(t *testing.T) {
				in := drawF32(rng, tensor.Shape{tc.n, tc.h, tc.w, tc.c})
				src := in.F32()
				switch round {
				case 1: // NaN on every pixel at an even row and column: the
					// first tap of each unpadded window of stride 2
					for i := range src {
						if x, y := i/tc.c%tc.w, i/(tc.c*tc.w)%tc.h; x%2 == 0 && y%2 == 0 {
							src[i] = nan
						}
					}
				case 2: // signed zeros only: every window is a tie
					for i := range src {
						src[i] = 0
						if rng.Intn(2) == 0 {
							src[i] = negZero
						}
					}
				case 3: // NaN mid-window among negatives
					for i := range src {
						src[i] = -1 - rng.Float32()
						if rng.Intn(3) == 0 {
							src[i] = nan
						}
					}
				}
				want := maxPoolPerChannel(src, tc.n, tc.h, tc.w, tc.c, oh, ow, p)
				got := run(t, "nn.max_pool2d", []*tensor.Tensor{in}, attrs).F32()
				if i, ok := sameF32Bits(got, want); !ok {
					t.Fatalf("out[%d] = %v (%#08x), per-channel loop %v (%#08x)",
						i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
				}
			})
		}
	}
}
