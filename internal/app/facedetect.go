// Package app implements the application showcase of the paper's §4 and
// Figure 1: each video frame passes an object detector (the TFLite
// MobileNet-SSD) and a face detector; where their boxes overlap, the
// PyTorch anti-spoofing model separates real faces from presentation
// attacks, and real faces go through the Keras emotion classifier
// (Listing 5).
package app

import (
	"repro/internal/tensor"
	"repro/internal/video"
)

// FaceDetector is the classical face detector stage (the cv2 Haar-cascade
// stand-in): it thresholds the bright skin-toned blobs the synthetic scene
// renders for faces, extracts connected components on a downsampled grid,
// and returns their bounding boxes.
//
// A detector reuses its grid buffers from call to call, so one detector must
// not run Detect concurrently; the showcase's detect stage is its only
// caller.
type FaceDetector struct {
	// Threshold on the red channel selecting face-like pixels.
	Threshold float64
	// Downsample factor for the component grid.
	Stride int
	// MinArea (in full-resolution pixels) below which components are noise.
	MinArea int

	// Scratch reused by every Detect: the face mask, the component map and
	// the flood-fill stack of the component grid.
	mask  []bool
	comp  []int
	stack []int
}

// NewFaceDetector returns a detector tuned for the synthetic scenes.
func NewFaceDetector() *FaceDetector {
	return &FaceDetector{Threshold: 0.7, Stride: 4, MinArea: 64}
}

// Detect returns face bounding boxes in frame pixel coordinates. img is a
// (1,H,W,3) frame.
func (d *FaceDetector) Detect(img *tensor.Tensor) []video.Rect {
	h, w := img.Shape[1], img.Shape[2]
	gw := (w + d.Stride - 1) / d.Stride
	gh := (h + d.Stride - 1) / d.Stride
	if cap(d.mask) < gw*gh {
		d.mask = make([]bool, gw*gh)
		d.comp = make([]int, gw*gh)
	}
	mask, comp := d.mask[:gw*gh], d.comp[:gw*gh]
	d.faceMask(mask, img, gw, gh)
	// Connected components via iterative flood fill (4-connectivity).
	for i := range comp {
		comp[i] = -1
	}
	var boxes []video.Rect
	stack := d.stack
	next := 0
	for start := range mask {
		if !mask[start] || comp[start] >= 0 {
			continue
		}
		id := next
		next++
		minX, minY, maxX, maxY := gw, gh, -1, -1
		stack = append(stack[:0], start)
		comp[start] = id
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			cy, cx := cur/gw, cur%gw
			if cx < minX {
				minX = cx
			}
			if cx > maxX {
				maxX = cx
			}
			if cy < minY {
				minY = cy
			}
			if cy > maxY {
				maxY = cy
			}
			for _, dxy := range [4][2]int{{0, 1}, {0, -1}, {1, 0}, {-1, 0}} {
				ny, nx := cy+dxy[0], cx+dxy[1]
				if ny < 0 || ny >= gh || nx < 0 || nx >= gw {
					continue
				}
				ni := ny*gw + nx
				if mask[ni] && comp[ni] < 0 {
					comp[ni] = id
					stack = append(stack, ni)
				}
			}
		}
		box := video.Rect{
			X: minX * d.Stride,
			Y: minY * d.Stride,
			W: (maxX - minX + 1) * d.Stride,
			H: (maxY - minY + 1) * d.Stride,
		}
		if box.Area() >= d.MinArea {
			boxes = append(boxes, box.Clamp(w, h))
		}
	}
	d.stack = stack
	return boxes
}

// faceMask marks the grid cells whose sampled pixel is face-like: bright with
// R >= G >= B (the renderer's skin tone); objects are green-dominant. Pixels
// are read by flat NHWC offset.
//
//np:hotpath
func (d *FaceDetector) faceMask(mask []bool, img *tensor.Tensor, gw, gh int) {
	w := img.Shape[2]
	for gy := 0; gy < gh; gy++ {
		for gx := 0; gx < gw; gx++ {
			px := (gy*d.Stride*w + gx*d.Stride) * 3
			r, g, b := img.GetF(px), img.GetF(px+1), img.GetF(px+2)
			mask[gy*gw+gx] = r > d.Threshold && r >= g && g >= b
		}
	}
}
