// Package video provides the synthetic video source for the application
// showcase. The paper feeds a camera video through the pipeline; here a
// deterministic generator synthesizes frames with planted "objects"
// (textured rectangles) and "faces" (bright elliptical blobs, some marked as
// spoofed prints with a flat texture), so the detector → anti-spoofing →
// emotion dependency chain actually fires, with realistic frame-to-frame
// motion.
package video

import (
	"fmt"

	"repro/internal/tensor"
)

// Rect is an axis-aligned box in pixel coordinates.
type Rect struct {
	X, Y, W, H int
}

// Clamp restricts the box to a width×height canvas.
func (r Rect) Clamp(width, height int) Rect {
	if r.X < 0 {
		r.W += r.X
		r.X = 0
	}
	if r.Y < 0 {
		r.H += r.Y
		r.Y = 0
	}
	if r.X+r.W > width {
		r.W = width - r.X
	}
	if r.Y+r.H > height {
		r.H = height - r.Y
	}
	if r.W < 0 {
		r.W = 0
	}
	if r.H < 0 {
		r.H = 0
	}
	return r
}

// Area returns the box area.
func (r Rect) Area() int { return r.W * r.H }

// IoU computes intersection-over-union between two boxes — the overlap test
// of the paper's Listing 5.
func IoU(a, b Rect) float64 {
	x1 := max(a.X, b.X)
	y1 := max(a.Y, b.Y)
	x2 := min(a.X+a.W, b.X+b.W)
	y2 := min(a.Y+a.H, b.Y+b.H)
	if x2 <= x1 || y2 <= y1 {
		return 0
	}
	inter := (x2 - x1) * (y2 - y1)
	union := a.Area() + b.Area() - inter
	if union <= 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// Intersects reports any positive overlap.
func Intersects(a, b Rect) bool { return IoU(a, b) > 0 }

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Rendering constants for face actors; the application calibrates its
// anti-spoofing threshold against these (see app.New).
const (
	// LiveFaceBrightness is the mean intensity of live faces (plus texture).
	LiveFaceBrightness float32 = 0.85
	// SpoofFaceBrightness is the flat intensity of printed-photo attacks.
	SpoofFaceBrightness float32 = 0.72
)

// Actor is one moving entity in the synthetic scene.
type Actor struct {
	Box     Rect
	VX, VY  int
	IsFace  bool
	Spoofed bool // printed-photo attack: flat texture
	Emotion int  // planted emotion index for face actors
}

// Frame is one video frame: an NHWC float32 RGB image in [0,1] plus the
// ground-truth actor boxes (used by tests and report generation, never by
// the models).
type Frame struct {
	Index int
	Image *tensor.Tensor // (1, H, W, 3)
	Truth []Actor
}

// Source generates deterministic frames.
type Source struct {
	W, H   int
	actors []Actor
	rng    *tensor.RNG
	frame  int
}

// NewSource creates a scene with nFaces face actors (alternating live and
// spoofed) and nObjects non-face objects.
func NewSource(w, h, nFaces, nObjects int, seed uint64) (*Source, error) {
	if w < 32 || h < 32 {
		return nil, fmt.Errorf("video: frame %dx%d too small", w, h)
	}
	s := &Source{W: w, H: h, rng: tensor.NewRNG(seed)}
	for i := 0; i < nFaces; i++ {
		size := h/6 + s.rng.Intn(h/8)
		s.actors = append(s.actors, Actor{
			Box: Rect{
				X: s.rng.Intn(w - size), Y: s.rng.Intn(h - size),
				W: size, H: size,
			},
			VX: s.rng.Intn(5) - 2, VY: s.rng.Intn(5) - 2,
			IsFace:  true,
			Spoofed: i%2 == 1,
			Emotion: s.rng.Intn(7),
		})
	}
	for i := 0; i < nObjects; i++ {
		bw := w/5 + s.rng.Intn(w/6)
		bh := h/4 + s.rng.Intn(h/6)
		s.actors = append(s.actors, Actor{
			Box: Rect{X: s.rng.Intn(max(1, w-bw)), Y: s.rng.Intn(max(1, h-bh)), W: bw, H: bh},
			VX:  s.rng.Intn(3) - 1, VY: s.rng.Intn(3) - 1,
		})
	}
	return s, nil
}

// Next renders the next frame and advances the scene.
func (s *Source) Next() *Frame {
	img := tensor.New(tensor.Float32, tensor.Shape{1, s.H, s.W, 3})
	data := img.F32()
	// Background: smooth gradient with low-amplitude noise.
	for y := 0; y < s.H; y++ {
		for x := 0; x < s.W; x++ {
			base := 0.15 + 0.1*float32(y)/float32(s.H)
			n := float32(s.rng.Float64()) * 0.02
			idx := (y*s.W + x) * 3
			data[idx] = base + n
			data[idx+1] = base + n*0.5
			data[idx+2] = base
		}
	}
	for _, a := range s.actors {
		s.renderActor(img, a)
	}
	f := &Frame{Index: s.frame, Image: img, Truth: append([]Actor(nil), s.actors...)}
	s.frame++
	// Advance motion with reflection at borders.
	for i := range s.actors {
		a := &s.actors[i]
		a.Box.X += a.VX
		a.Box.Y += a.VY
		if a.Box.X < 0 || a.Box.X+a.Box.W > s.W {
			a.VX = -a.VX
			a.Box.X += 2 * a.VX
		}
		if a.Box.Y < 0 || a.Box.Y+a.Box.H > s.H {
			a.VY = -a.VY
			a.Box.Y += 2 * a.VY
		}
	}
	return f
}

func (s *Source) renderActor(img *tensor.Tensor, a Actor) {
	box := a.Box.Clamp(s.W, s.H)
	data := img.F32()
	cx := float64(box.X) + float64(box.W)/2
	cy := float64(box.Y) + float64(box.H)/2
	rx := float64(box.W) / 2
	ry := float64(box.H) / 2
	for y := box.Y; y < box.Y+box.H; y++ {
		for x := box.X; x < box.X+box.W; x++ {
			idx := (y*s.W + x) * 3
			if a.IsFace {
				// Elliptical bright blob; live faces are bright and
				// textured, spoofed ones (printed photos) dimmer and flat.
				dx := (float64(x) - cx) / rx
				dy := (float64(y) - cy) / ry
				if dx*dx+dy*dy > 1 {
					continue
				}
				v := LiveFaceBrightness
				if a.Spoofed {
					v = SpoofFaceBrightness
				} else {
					v += float32(s.rng.Float64()-0.5) * 0.2
				}
				data[idx] = v
				data[idx+1] = v * 0.85
				data[idx+2] = v * 0.75
			} else {
				// Textured rectangle object.
				v := 0.4 + 0.2*float32((x+y)%7)/7
				data[idx] = v * 0.5
				data[idx+1] = v
				data[idx+2] = v * 0.8
			}
		}
	}
}

// Frames returns the next n frames.
func (s *Source) Frames(n int) []*Frame {
	out := make([]*Frame, n)
	for i := range out {
		out[i] = s.Next()
	}
	return out
}

// RenderFacePatch renders a reference face crop exactly as the scene
// renderer would produce it — elliptical blob over background — for
// calibrating downstream models against live vs printed-photo appearance.
func RenderFacePatch(h, w int, spoofed bool, seed uint64) *tensor.Tensor {
	s := &Source{W: w, H: h, rng: tensor.NewRNG(seed)}
	img := tensor.New(tensor.Float32, tensor.Shape{1, h, w, 3})
	data := img.F32()
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			base := 0.15 + 0.1*float32(y)/float32(h)
			idx := (y*w + x) * 3
			data[idx] = base
			data[idx+1] = base
			data[idx+2] = base
		}
	}
	s.renderActor(img, Actor{
		Box:     Rect{X: 0, Y: 0, W: w, H: h},
		IsFace:  true,
		Spoofed: spoofed,
	})
	return img
}

// CropResize extracts a box from a frame image and bilinearly resizes it to
// (outH, outW) — the face-region extraction feeding the anti-spoofing and
// emotion models. channels selects the output channel count (1 converts to
// grayscale for the emotion model). It is CropResizeInto on a new tensor.
func CropResize(img *tensor.Tensor, box Rect, outH, outW, channels int) *tensor.Tensor {
	out := tensor.New(tensor.Float32, tensor.Shape{1, outH, outW, channels})
	CropResizeInto(out, img, box)
	return out
}

// colTap is what one output column contributes to every row's interpolation:
// the element offsets of its two source columns (clamped to the image) within
// a source row, and the horizontal fraction.
type colTap struct {
	off0, off1 int
	fx         float64
}

// stackCols is the widest output whose column taps live on the stack; model
// inputs are far narrower.
const stackCols = 256

// CropResizeInto resizes box of img — a (1,H,W,3) float32 frame — into every
// element of dst, a (1,outH,outW,1|3) float32 tensor the caller owns; a
// one-channel dst receives luma. It allocates nothing (for outW up to
// stackCols) and reads and writes the backing slices by flat offset.
func CropResizeInto(dst, img *tensor.Tensor, box Rect) {
	if len(img.Shape) != 4 || img.DType != tensor.Float32 || img.Shape[0] != 1 || img.Shape[3] != 3 {
		panic(fmt.Sprintf("video: CropResize wants a (1,H,W,3) float32 image, got %s", img))
	}
	if len(dst.Shape) != 4 || dst.DType != tensor.Float32 || dst.Shape[0] != 1 {
		panic(fmt.Sprintf("video: CropResize wants a (1,H,W,C) float32 destination, got %s", dst))
	}
	outH, outW, channels := dst.Shape[1], dst.Shape[2], dst.Shape[3]
	if channels != 1 && channels != 3 {
		panic(fmt.Sprintf("video: CropResize channels must be 1 or 3, got %d", channels))
	}
	h, w := img.Shape[1], img.Shape[2]
	box = box.Clamp(w, h)
	if box.W < 1 {
		box.W = 1
	}
	if box.H < 1 {
		box.H = 1
	}
	var onStack [stackCols]colTap
	cols := onStack[:]
	if outW > stackCols {
		cols = make([]colTap, outW)
	}
	cols = cols[:outW]
	for ox := range cols {
		sx := float64(box.X) + (float64(ox)+0.5)*float64(box.W)/float64(outW) - 0.5
		x0 := int(sx) // toward zero: a column left of the image keeps fx < 0
		cols[ox] = colTap{off0: max(0, min(x0, w-1)) * 3, off1: max(0, min(x0+1, w-1)) * 3, fx: sx - float64(x0)}
	}
	resizeRows(dst.F32(), img.F32(), cols, box, h, w, outH, channels)
}

// resizeRows is the pixel loop of CropResizeInto. Each tap sum is written
// term by term, left to right, with no pre-multiplied weights: regrouping the
// products changes the last bit of some pixels, and the showcase's verdicts
// are pinned on these exact inputs.
//
//np:hotpath
func resizeRows(out, src []float32, cols []colTap, box Rect, h, w, outH, channels int) {
	o := 0
	for oy := 0; oy < outH; oy++ {
		sy := float64(box.Y) + (float64(oy)+0.5)*float64(box.H)/float64(outH) - 0.5
		y0 := int(sy)
		fy := sy - float64(y0)
		row0 := src[max(0, min(y0, h-1))*w*3:]
		row1 := src[max(0, min(y0+1, h-1))*w*3:]
		for i := range cols {
			c := &cols[i]
			fx := c.fx
			p00, p01 := row0[c.off0:c.off0+3], row0[c.off1:c.off1+3]
			p10, p11 := row1[c.off0:c.off0+3], row1[c.off1:c.off1+3]
			r := float64(p00[0])*(1-fx)*(1-fy) +
				float64(p01[0])*fx*(1-fy) +
				float64(p10[0])*(1-fx)*fy +
				float64(p11[0])*fx*fy
			g := float64(p00[1])*(1-fx)*(1-fy) +
				float64(p01[1])*fx*(1-fy) +
				float64(p10[1])*(1-fx)*fy +
				float64(p11[1])*fx*fy
			b := float64(p00[2])*(1-fx)*(1-fy) +
				float64(p01[2])*fx*(1-fy) +
				float64(p10[2])*(1-fx)*fy +
				float64(p11[2])*fx*fy
			if channels == 1 {
				out[o] = float32(0.299*r + 0.587*g + 0.114*b)
				o++
			} else {
				out[o], out[o+1], out[o+2] = float32(r), float32(g), float32(b)
				o += 3
			}
		}
	}
}
