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

	"repro/internal/parallel"
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
	// Background: smooth gradient with low-amplitude noise. Here and in
	// renderActor every product that meets an add is an explicit
	// conversion, so a target with fused multiply-add renders the same bits.
	for y := 0; y < s.H; y++ {
		for x := 0; x < s.W; x++ {
			base := 0.15 + 0.1*float32(y)/float32(s.H)
			n := float32(float32(s.rng.Float64()) * 0.02)
			idx := (y*s.W + x) * 3
			data[idx] = base + n
			data[idx+1] = base + float32(n*0.5)
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
	cx := float64(box.X) + float64(float64(box.W)/2)
	cy := float64(box.Y) + float64(float64(box.H)/2)
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
				if float64(dx*dx)+float64(dy*dy) > 1 {
					continue
				}
				v := LiveFaceBrightness
				if a.Spoofed {
					v = SpoofFaceBrightness
				} else {
					v += float32(float32(s.rng.Float64()-0.5) * 0.2)
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

// stackCols is the widest output whose column taps a chunk keeps on its
// stack; model inputs are at most a few hundred pixels wide.
const stackCols = 256

// columnTaps fills cols with the taps of output columns [0, len(cols)) of a
// resize of box, in an image w pixels wide.
func columnTaps(cols []colTap, box Rect, w int) {
	outW := len(cols)
	for ox := range cols {
		sx := float64(box.X) + (float64(ox)+0.5)*float64(box.W)/float64(outW) - 0.5
		x0 := int(sx) // toward zero: a column left of the image keeps fx < 0
		cols[ox] = colTap{off0: max(0, min(x0, w-1)) * 3, off1: max(0, min(x0+1, w-1)) * 3, fx: sx - float64(x0)}
	}
}

// resizeWork is an output pixel's work in MAC-equivalents, the split
// estimate: four taps of three source channels.
const resizeWork = 12

// CropResizeInto resizes box of img — a (1,H,W,3) float32 frame — into every
// element of dst, a (1,outH,outW,1|3) float32 tensor the caller owns; a
// one-channel dst receives luma. It reads and writes the backing slices by
// flat offset, splits the output rows over the parallel pool when their work
// pays for it, and allocates nothing in steady state.
func CropResizeInto(dst, img *tensor.Tensor, box Rect) { cropResize(dst, nil, img, box) }

// CropResizeQuantizeInto is CropResizeInto into dst followed by
// dstQ.QuantizeFrom(dst.F32()), each chunk of rows quantized as soon as it
// is resized, while it is still in cache: a quantized model's input without
// a second pass over the tensor. dstQ is a quantized tensor, with quant
// params, of dst's element count.
func CropResizeQuantizeInto(dstQ, dst, img *tensor.Tensor, box Rect) {
	if !dstQ.DType.IsQuantized() || dstQ.Quant == nil || dstQ.Elems() != dst.Elems() {
		panic(fmt.Sprintf("video: CropResize wants a quantized destination of %d elements, got %s", dst.Elems(), dstQ))
	}
	cropResize(dst, dstQ, img, box)
}

// cropResize is CropResizeInto, quantizing into dstQ too unless it is nil.
func cropResize(dst, dstQ, img *tensor.Tensor, box Rect) {
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
	resizeRegion.Run(outH, int64(outH)*int64(outW)*resizeWork, parallel.ChunkOpts{},
		resizeArgs{dst.F32(), img.F32(), dstQ, box, h, w, outH, outW, channels})
}

var resizeRegion = parallel.NewRegion(resizeArgs.run)

// resizeArgs is one resize launch's chunk: output rows [lo, hi), then
// their quantized copy when q is not nil. Each chunk computes the column
// taps it reads; they depend on the output column alone.
type resizeArgs struct {
	out, src                   []float32
	q                          *tensor.Tensor
	box                        Rect
	h, w, outH, outW, channels int
}

func (a resizeArgs) run(lo, hi int) {
	var onStack [stackCols]colTap
	var prodStack [4 * 3 * stackCols]float64
	cols, prods := onStack[:min(a.outW, stackCols)], prodStack[:4*3*min(a.outW, stackCols)]
	if a.outW > stackCols {
		cols, prods = make([]colTap, a.outW), make([]float64, 4*3*a.outW)
	}
	columnTaps(cols, a.box, a.w)
	rowLen := a.outW * a.channels
	out := a.out[lo*rowLen : hi*rowLen]
	resizeRows(out, a.src, cols, prods, a.box, a.h, a.w, a.outH, a.channels, lo, hi)
	if a.q != nil {
		a.q.QuantizeFromAt(lo*rowLen, out)
	}
}

// resizeRows is the pixel loop of CropResizeInto over output rows
// [oyLo, oyHi), written from the start of out. Each tap sum is written term
// by term, left to right, with no pre-multiplied weights: regrouping the
// products changes the last bit of some pixels, and the showcase's verdicts
// are pinned on these exact inputs. Every product is an explicit conversion
// or a store, which rounds it, so no target fuses it with the add that
// follows.
//
// It runs in two passes that keep that order. A tap's term is
// (p·wx)·wy: the horizontal pass (rowProducts) writes a source row's
// products p·(1−fx) and p·fx, every output column's three channels,
// into a row of prods, and the vertical pass (blendRows) multiplies them by
// the row weights 1−fy and fy and adds the four terms in the original order.
// An output row reads two source rows, and consecutive output rows of an
// upscale, or of a downscale by less than two, share one or both; prods
// holds the products of the last two source rows the chunk computed, so a
// shared row is multiplied once per chunk instead of once per output row.
// The reused value is the same float64 the one-pass loop recomputed, so
// the reuse cannot change a bit. A chunk starts with none held. Where the
// CPU has AVX both passes run in vector registers (resize_amd64.s).
//
//np:hotpath
func resizeRows(out, src []float32, cols []colTap, prods []float64, box Rect, h, w, outH, channels, oyLo, oyHi int) {
	n := 3 * len(cols)
	held := [2]int{-1, -1} // the source row whose products slot i of prods holds
	o := 0
	for oy := oyLo; oy < oyHi; oy++ {
		sy := float64(box.Y) + (float64(oy)+0.5)*float64(box.H)/float64(outH) - 0.5
		y0 := int(sy)
		fy := sy - float64(y0)
		r0, r1 := max(0, min(y0, h-1)), max(0, min(y0+1, h-1))
		i0 := heldSlot(&held, r0)
		if i0 < 0 {
			i0 = 0
			if held[0] == r1 {
				i0 = 1
			}
			a, b := prodSlot(prods, n, i0)
			rowProducts(a, b, src[r0*w*3:], cols)
			held[i0] = r0
		}
		i1 := heldSlot(&held, r1)
		if i1 < 0 {
			i1 = 1 - i0
			a, b := prodSlot(prods, n, i1)
			rowProducts(a, b, src[r1*w*3:], cols)
			held[i1] = r1
		}
		a0, b0 := prodSlot(prods, n, i0)
		a1, b1 := prodSlot(prods, n, i1)
		if channels == 1 {
			blendRowsLuma(out[o:o+len(cols)], a0, b0, a1, b1, 1-fy, fy)
			o += len(cols)
		} else {
			blendRows(out[o:o+n], a0, b0, a1, b1, 1-fy, fy)
			o += n
		}
	}
}

// prodSlot returns slot i of prods: the a and b product rows, n values
// each, of one source row.
func prodSlot(prods []float64, n, i int) (a, b []float64) {
	return prods[2*i*n : (2*i+1)*n], prods[(2*i+1)*n : (2*i+2)*n]
}

// heldSlot returns the slot of prods holding source row r's products, or -1.
func heldSlot(held *[2]int, r int) int {
	for i, hr := range held {
		if hr == r {
			return i
		}
	}
	return -1
}

// rowProducts is the horizontal pass over one source row: for output column
// i and channel ch, a[3i+ch] = p0·(1−fx) and b[3i+ch] = p1·fx, p0 and p1
// the channel at the column's two taps. rowProductsVec does the row where
// the CPU has a vector body.
//
//np:hotpath
func rowProducts(a, b []float64, row []float32, cols []colTap) {
	if rowProductsVec(a, b, row, cols) {
		return
	}
	for i := range cols {
		c := &cols[i]
		p0, p1 := (*[3]float32)(row[c.off0:]), (*[3]float32)(row[c.off1:])
		ai, bi := (*[3]float64)(a[3*i:]), (*[3]float64)(b[3*i:])
		wx0, wx1 := 1-c.fx, c.fx
		ai[0], ai[1], ai[2] = float64(p0[0])*wx0, float64(p0[1])*wx0, float64(p0[2])*wx0
		bi[0], bi[1], bi[2] = float64(p1[0])*wx1, float64(p1[1])*wx1, float64(p1[2])*wx1
	}
}

// blendRows is the vertical pass into a three-channel row:
// out[j] = float32(a0[j]·wy0 + b0[j]·wy0 + a1[j]·wy1 + b1[j]·wy1), added
// left to right. blendVec takes the leading multiple of four lanes where the
// CPU has a vector body; the Go loop does the rest.
//
//np:hotpath
func blendRows(out []float32, a0, b0, a1, b1 []float64, wy0, wy1 float64) {
	a0, b0, a1, b1 = a0[:len(out)], b0[:len(out)], a1[:len(out)], b1[:len(out)]
	for j := blendVec(out, a0, b0, a1, b1, wy0, wy1); j < len(out); j++ {
		out[j] = float32(float64(a0[j]*wy0) + float64(b0[j]*wy0) + float64(a1[j]*wy1) + float64(b1[j]*wy1))
	}
}

// blendRowsLuma is the vertical pass into a one-channel row: each output
// pixel blends its three channels as blendRows does, then takes their luma.
//
//np:hotpath
func blendRowsLuma(out []float32, a0, b0, a1, b1 []float64, wy0, wy1 float64) {
	for i := range out {
		x0, y0, x1, y1 := (*[3]float64)(a0[3*i:]), (*[3]float64)(b0[3*i:]), (*[3]float64)(a1[3*i:]), (*[3]float64)(b1[3*i:])
		r := float64(x0[0]*wy0) + float64(y0[0]*wy0) + float64(x1[0]*wy1) + float64(y1[0]*wy1)
		g := float64(x0[1]*wy0) + float64(y0[1]*wy0) + float64(x1[1]*wy1) + float64(y1[1]*wy1)
		b := float64(x0[2]*wy0) + float64(y0[2]*wy0) + float64(x1[2]*wy1) + float64(y1[2]*wy1)
		out[i] = float32(float64(0.299*r) + float64(0.587*g) + float64(0.114*b))
	}
}
