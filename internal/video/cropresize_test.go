package video_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/app"
	"repro/internal/models"
	"repro/internal/parallel"
	"repro/internal/tensor"
	"repro/internal/video"
)

// cropResizeOracle and bilinearOracle are CropResize and bilinear as they
// stood before the flat-indexed rewrite, moved here verbatim but for the
// explicit conversion of every product, which keeps a target with fused
// multiply-add from fusing it: every tap read through At, every pixel written
// through Set. CropResizeInto must produce the same float32 bits.
func cropResizeOracle(img *tensor.Tensor, box video.Rect, outH, outW, channels int) *tensor.Tensor {
	h, w := img.Shape[1], img.Shape[2]
	box = box.Clamp(w, h)
	if box.W < 1 {
		box.W = 1
	}
	if box.H < 1 {
		box.H = 1
	}
	out := tensor.New(tensor.Float32, tensor.Shape{1, outH, outW, channels})
	for oy := 0; oy < outH; oy++ {
		sy := float64(box.Y) + (float64(oy)+0.5)*float64(box.H)/float64(outH) - 0.5
		for ox := 0; ox < outW; ox++ {
			sx := float64(box.X) + (float64(ox)+0.5)*float64(box.W)/float64(outW) - 0.5
			r := bilinearOracle(img, sy, sx, 0)
			g := bilinearOracle(img, sy, sx, 1)
			b := bilinearOracle(img, sy, sx, 2)
			if channels == 1 {
				out.Set(float64(0.299*r)+float64(0.587*g)+float64(0.114*b), 0, oy, ox, 0)
			} else {
				out.Set(r, 0, oy, ox, 0)
				out.Set(g, 0, oy, ox, 1)
				out.Set(b, 0, oy, ox, 2)
			}
		}
	}
	return out
}

func bilinearOracle(img *tensor.Tensor, y, x float64, c int) float64 {
	h, w := img.Shape[1], img.Shape[2]
	x0, y0 := int(x), int(y)
	fx, fy := x-float64(x0), y-float64(y0)
	clampAt := func(yy, xx int) float64 {
		if yy < 0 {
			yy = 0
		}
		if yy >= h {
			yy = h - 1
		}
		if xx < 0 {
			xx = 0
		}
		if xx >= w {
			xx = w - 1
		}
		return img.At(0, yy, xx, c)
	}
	return float64(clampAt(y0, x0)*(1-fx)*(1-fy)) +
		float64(clampAt(y0, x0+1)*fx*(1-fy)) +
		float64(clampAt(y0+1, x0)*(1-fx)*fy) +
		float64(clampAt(y0+1, x0+1)*fx*fy)
}

// sameBits fails the test at the first element whose float32 bits differ.
func sameBits(t *testing.T, what string, got, want *tensor.Tensor) {
	t.Helper()
	if !got.Shape.Equal(want.Shape) {
		t.Fatalf("%s: shape %s, oracle %s", what, got.Shape, want.Shape)
	}
	g, w := got.F32(), want.F32()
	for i := range w {
		if math.Float32bits(g[i]) != math.Float32bits(w[i]) {
			t.Fatalf("%s: element %d = %v (%#x), oracle %v (%#x)", what, i,
				g[i], math.Float32bits(g[i]), w[i], math.Float32bits(w[i]))
		}
	}
}

// showcaseInputSizes returns the lite trio's input heights and widths: the
// detector's, the anti-spoofing model's, the emotion model's.
func showcaseInputSizes(t *testing.T) (det, spoof, emo tensor.Shape) {
	t.Helper()
	detMod, err := models.BuildMobileNetSSDQuant(models.SizeLite)
	if err != nil {
		t.Fatal(err)
	}
	spoofMod, err := models.BuildDeePixBiS(models.SizeLite)
	if err != nil {
		t.Fatal(err)
	}
	emoMod, err := models.BuildEmotion(models.SizeLite)
	if err != nil {
		t.Fatal(err)
	}
	return models.InputShape(detMod), models.InputShape(spoofMod), models.InputShape(emoMod)
}

// TestCropResizeMatchesOracle: on the benchmark's scene, every resize the
// showcase performs — the detector's full-frame one, every face box at the
// anti-spoofing and the emotion size — and the edge cases of the geometry are
// bit-equal to the At/Set implementation, into a destination that held other
// values before.
func TestCropResizeMatchesOracle(t *testing.T) {
	det, spoof, emo := showcaseInputSizes(t)
	src, err := video.NewSource(160, 120, 2, 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	faces := app.NewFaceDetector()
	check := func(what string, img *tensor.Tensor, box video.Rect, outH, outW, channels int) {
		t.Helper()
		want := cropResizeOracle(img, box, outH, outW, channels)
		sameBits(t, what, video.CropResize(img, box, outH, outW, channels), want)
		dirty := tensor.New(tensor.Float32, tensor.Shape{1, outH, outW, channels})
		dirty.Fill(-7.25)
		video.CropResizeInto(dirty, img, box)
		sameBits(t, what+" into a dirty destination", dirty, want)
	}
	boxes := 0
	for _, f := range src.Frames(32) {
		h, w := f.Image.Shape[1], f.Image.Shape[2]
		check(fmt.Sprintf("frame %d detector input", f.Index), f.Image,
			video.Rect{X: 0, Y: 0, W: w, H: h}, det[1], det[2], 3)
		for _, fb := range faces.Detect(f.Image) {
			boxes++
			check(fmt.Sprintf("frame %d face %+v anti-spoofing input", f.Index, fb), f.Image, fb, spoof[1], spoof[2], 3)
			check(fmt.Sprintf("frame %d face %+v emotion input", f.Index, fb), f.Image, fb, emo[1], emo[2], 1)
		}
	}
	if boxes == 0 {
		t.Fatal("the face detector found no box in 32 frames")
	}

	img := src.Next().Image
	// workers, when not 0, caps the launch's workers. The row reuse
	// (resizeRows) is checked by an upscale whose consecutive output rows
	// share both source rows, a box at the bottom edge whose last rows clamp
	// both taps to the same source row, and a launch split over two workers
	// whose chunk boundaries (every 8 of its 64 rows) fall inside a run of
	// output rows that share their source rows (rows 0–47 all read rows 0
	// and 1 of the box).
	geometry := []struct {
		name       string
		box        video.Rect
		outH, outW int
		workers    int
	}{
		{"over the left edge", video.Rect{X: -9, Y: 30, W: 30, H: 30}, 64, 64, 0},
		{"over the top edge", video.Rect{X: 40, Y: -12, W: 28, H: 28}, 64, 64, 0},
		{"over the right edge", video.Rect{X: 150, Y: 30, W: 30, H: 30}, 64, 64, 0},
		{"over the bottom edge", video.Rect{X: 40, Y: 110, W: 30, H: 30}, 64, 64, 0},
		{"over two edges at the corner", video.Rect{X: 140, Y: 100, W: 64, H: 64}, 48, 48, 0},
		{"outside the frame", video.Rect{X: 400, Y: 300, W: 10, H: 10}, 8, 8, 0},
		{"1x1 box", video.Rect{X: 77, Y: 55, W: 1, H: 1}, 48, 48, 0},
		{"1x1 box at the origin", video.Rect{X: 0, Y: 0, W: 1, H: 1}, 5, 7, 0},
		{"upsampled 8x at the frame corner", video.Rect{X: 0, Y: 0, W: 8, H: 8}, 64, 64, 0},
		{"upsampled, odd sizes", video.Rect{X: 13, Y: 17, W: 11, H: 9}, 63, 47, 0},
		{"downsampled 4x", video.Rect{X: 0, Y: 0, W: 160, H: 120}, 30, 40, 0},
		{"downsampled to one pixel", video.Rect{X: 20, Y: 20, W: 90, H: 70}, 1, 1, 0},
		{"wider than the stack taps", video.Rect{X: 5, Y: 5, W: 100, H: 20}, 4, 300, 0},
		{"upsampled 16x, rows shared in runs", video.Rect{X: 60, Y: 40, W: 12, H: 4}, 64, 24, 0},
		{"at the bottom edge, both taps on the last row", video.Rect{X: 20, Y: 116, W: 30, H: 4}, 24, 20, 0},
		{"split inside a run of shared rows", video.Rect{X: 10, Y: 50, W: 40, H: 2}, 64, 64, 2},
	}
	workers := parallel.MaxWorkers()
	defer parallel.SetMaxWorkers(workers)
	for _, g := range geometry {
		parallel.SetMaxWorkers(workers)
		if g.workers != 0 {
			parallel.SetMaxWorkers(g.workers)
		}
		for _, channels := range []int{3, 1} {
			check(fmt.Sprintf("%s, %d channels", g.name, channels), img, g.box, g.outH, g.outW, channels)
		}
	}
}

// TestCropResizeContract: what CropResize accepts is checked once at entry,
// and a refusal names the offending value.
func TestCropResizeContract(t *testing.T) {
	frame := tensor.New(tensor.Float32, tensor.Shape{1, 8, 8, 3})
	u8 := tensor.New(tensor.UInt8, tensor.Shape{1, 8, 8, 3})
	box := video.Rect{X: 0, Y: 0, W: 8, H: 8}
	cases := []struct {
		name string
		call func()
		want string // "" = accepted
	}{
		{"3 channels", func() { video.CropResize(frame, box, 4, 4, 3) }, ""},
		{"1 channel", func() { video.CropResize(frame, box, 4, 4, 1) }, ""},
		{"2 channels", func() { video.CropResize(frame, box, 4, 4, 2) },
			"video: CropResize channels must be 1 or 3, got 2"},
		{"4 channels", func() { video.CropResize(frame, box, 4, 4, 4) },
			"video: CropResize channels must be 1 or 3, got 4"},
		{"uint8 image", func() { video.CropResize(u8, box, 4, 4, 3) },
			"video: CropResize wants a (1,H,W,3) float32 image, got Tensor[uint8 (1,8,8,3)]"},
		{"gray image", func() { video.CropResize(tensor.New(tensor.Float32, tensor.Shape{1, 8, 8, 1}), box, 4, 4, 1) },
			"video: CropResize wants a (1,H,W,3) float32 image, got Tensor[float32 (1,8,8,1)]"},
		{"rank-3 image", func() { video.CropResize(tensor.New(tensor.Float32, tensor.Shape{8, 8, 3}), box, 4, 4, 3) },
			"video: CropResize wants a (1,H,W,3) float32 image, got Tensor[float32 (8,8,3)]"},
		{"batch of two", func() { video.CropResize(tensor.New(tensor.Float32, tensor.Shape{2, 8, 8, 3}), box, 4, 4, 3) },
			"video: CropResize wants a (1,H,W,3) float32 image, got Tensor[float32 (2,8,8,3)]"},
		{"uint8 destination", func() { video.CropResizeInto(tensor.New(tensor.UInt8, tensor.Shape{1, 4, 4, 3}), frame, box) },
			"video: CropResize wants a (1,H,W,C) float32 destination, got Tensor[uint8 (1,4,4,3)]"},
		{"rank-2 destination", func() { video.CropResizeInto(tensor.New(tensor.Float32, tensor.Shape{4, 4}), frame, box) },
			"video: CropResize wants a (1,H,W,C) float32 destination, got Tensor[float32 (4,4)]"},
		{"quantized twin without params", func() {
			video.CropResizeQuantizeInto(tensor.New(tensor.UInt8, tensor.Shape{1, 4, 4, 3}), tensor.New(tensor.Float32, tensor.Shape{1, 4, 4, 3}), frame, box)
		}, "video: CropResize wants a quantized destination of 48 elements, got Tensor[uint8 (1,4,4,3)]"},
	}
	for _, c := range cases {
		got := func() (msg string) {
			defer func() {
				if r := recover(); r != nil {
					msg = fmt.Sprint(r)
				}
			}()
			c.call()
			return ""
		}()
		if got != c.want {
			t.Errorf("%s: panic %q, want %q", c.name, got, c.want)
		}
	}
}

// TestCropResizeIntoDoesNotAllocate at the three sizes the showcase uses.
func TestCropResizeIntoDoesNotAllocate(t *testing.T) {
	src, err := video.NewSource(160, 120, 2, 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	img := src.Next().Image
	for _, shape := range []tensor.Shape{{1, 96, 96, 3}, {1, 64, 64, 3}, {1, 48, 48, 1}} {
		dst := tensor.New(tensor.Float32, shape)
		box := video.Rect{X: 31, Y: 22, W: 40, H: 36}
		if allocs := testing.AllocsPerRun(20, func() { video.CropResizeInto(dst, img, box) }); allocs != 0 {
			t.Errorf("CropResizeInto %s allocates %v times per call, want 0",
				strings.TrimPrefix(dst.String(), "Tensor"), allocs)
		}
	}
}

// TestCropResizeSplitMatchesSerial: the resize launch split over two
// workers writes the bits the serial launch does, at three channels and at
// one, for boxes inside the frame and clamped at its edges, and
// CropResizeQuantizeInto equals CropResizeInto followed by QuantizeFrom on
// the whole tensor. Every output here pays for a split (96 output rows cut
// into chunks of 12, 48 into chunks of 6).
func TestCropResizeSplitMatchesSerial(t *testing.T) {
	defer parallel.SetMaxWorkers(parallel.MaxWorkers())
	src, err := video.NewSource(160, 120, 2, 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	img := src.Next().Image
	boxes := []video.Rect{
		{X: 0, Y: 0, W: 160, H: 120},
		{X: 31, Y: 22, W: 40, H: 36},
		{X: -9, Y: 100, W: 40, H: 40},
		{X: 140, Y: -5, W: 64, H: 30},
	}
	for _, shape := range []tensor.Shape{{1, 96, 96, 3}, {1, 96, 96, 1}, {1, 48, 48, 1}} {
		for _, box := range boxes {
			what := fmt.Sprintf("%v into %v", box, shape)
			parallel.SetMaxWorkers(1)
			want := tensor.New(tensor.Float32, shape)
			video.CropResizeInto(want, img, box)
			wantQ := want.QuantizeTo(tensor.UInt8, tensor.QuantParams{Scale: 1.0 / 255, ZeroPoint: 3})
			parallel.SetMaxWorkers(2)
			got := tensor.New(tensor.Float32, shape)
			got.Fill(-7.25)
			video.CropResizeInto(got, img, box)
			sameBits(t, what+", split", got, want)
			gotQ := tensor.New(tensor.UInt8, shape)
			gotQ.Quant = wantQ.Quant
			got.Fill(-7.25)
			video.CropResizeQuantizeInto(gotQ, got, img, box)
			sameBits(t, what+", split with quantize", got, want)
			for i, v := range wantQ.U8() {
				if gotQ.U8()[i] != v {
					t.Fatalf("%s: quantized element %d = %d, serial %d", what, i, gotQ.U8()[i], v)
				}
			}
		}
	}
}

// BenchmarkCropResize times the showcase's three resizes on one worker: the
// detector's full frame, and a face box at the anti-spoofing and the emotion
// size.
func BenchmarkCropResize(b *testing.B) {
	defer parallel.SetMaxWorkers(parallel.SetMaxWorkers(1))
	src, err := video.NewSource(160, 120, 2, 2, 42)
	if err != nil {
		b.Fatal(err)
	}
	img := src.Next().Image
	for _, c := range []struct {
		name  string
		box   video.Rect
		shape tensor.Shape
	}{
		{"detector_96x96", video.Rect{X: 0, Y: 0, W: 160, H: 120}, tensor.Shape{1, 96, 96, 3}},
		{"spoof_64x64", video.Rect{X: 31, Y: 22, W: 40, H: 36}, tensor.Shape{1, 64, 64, 3}},
		{"emotion_48x48_gray", video.Rect{X: 31, Y: 22, W: 40, H: 36}, tensor.Shape{1, 48, 48, 1}},
	} {
		dst := tensor.New(tensor.Float32, c.shape)
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				video.CropResizeInto(dst, img, c.box)
			}
		})
	}
}
