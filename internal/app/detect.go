package app

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/tensor"
	"repro/internal/video"
)

// Detection is one decoded object-detector box.
type Detection struct {
	Box   video.Rect
	Score float64
	Class int
}

// DecodeSSD converts the SSD head outputs (dequantized boxes [1,N,4] and
// class scores [1,N,C]) into frame-space detections, best score first, at
// most topK of them (all when topK <= 0). Rows are laid out as
// gridA²·anchors followed by gridB²·anchors with gridA = 2·gridB (the two
// feature-map scales of the model); box regressions are decoded relative to
// their anchor cell.
func DecodeSSD(boxes, scores *tensor.Tensor, frameW, frameH int, threshold float64, topK int) ([]Detection, error) {
	dets, err := decodeSSDRows(nil, boxes, scores, frameW, frameH, threshold)
	if err != nil {
		return nil, err
	}
	return dets[:topCount(dets, topK)], nil
}

// topCount is how many of the sorted rows the topK cut keeps.
func topCount(dets []Detection, topK int) int {
	if topK > 0 && len(dets) > topK {
		return topK
	}
	return len(dets)
}

// decodeSSDRows appends every row that passes the threshold to dst[:0] and
// sorts the rows by descending score: DecodeSSD without the topK cut, into a
// buffer the caller may reuse across frames.
func decodeSSDRows(dst []Detection, boxes, scores *tensor.Tensor, frameW, frameH int, threshold float64) ([]Detection, error) {
	if len(boxes.Shape) != 3 || boxes.Shape[2] != 4 {
		return nil, fmt.Errorf("app: SSD boxes have shape %s, want (1,N,4)", boxes.Shape)
	}
	n := boxes.Shape[1]
	if len(scores.Shape) != 3 || scores.Shape[1] != n {
		return nil, fmt.Errorf("app: SSD scores have shape %s, want (1,%d,C)", scores.Shape, n)
	}
	classes := scores.Shape[2]
	// N = anchors·(gridA² + gridB²) with gridA = 2·gridB → N = 15·gridB².
	gridB := int(math.Round(math.Sqrt(float64(n) / 15)))
	if gridB < 1 || 15*gridB*gridB != n {
		return nil, fmt.Errorf("app: cannot derive SSD grids from %d rows", n)
	}
	gridA := 2 * gridB
	anchors := 3

	// Rows are read by flat offset: boxes[i·4+k], scores[i·classes+c].
	dets := dst[:0]
	if cap(dets) < n {
		dets = make([]Detection, 0, n) // most rows of an uncalibrated head pass the threshold
	}
	for i := 0; i < n; i++ {
		// Best non-background class.
		best, bestScore := 0, 0.0
		for c := 1; c < classes; c++ {
			if s := scores.GetF(i*classes + c); s > bestScore {
				best, bestScore = c, s
			}
		}
		if bestScore < threshold {
			continue
		}
		grid, row := gridA, i
		if i >= gridA*gridA*anchors {
			grid = gridB
			row = i - gridA*gridA*anchors
		}
		cell := row / anchors
		cy := cell / grid
		cx := cell % grid
		// Box regression relative to anchor cell center.
		dx := boxes.GetF(i * 4)
		dy := boxes.GetF(i*4 + 1)
		dw := boxes.GetF(i*4 + 2)
		dh := boxes.GetF(i*4 + 3)
		// Each product is an explicit conversion, so a target with fused
		// multiply-add rounds it as amd64 does (the pinned boxes).
		centerX := (float64(cx)+0.5)/float64(grid) + float64(0.1*clampF(dx, -2, 2))
		centerY := (float64(cy)+0.5)/float64(grid) + float64(0.1*clampF(dy, -2, 2))
		base := 1.8 / float64(grid)
		bw := base * math.Exp(clampF(dw, -1, 1))
		bh := base * math.Exp(clampF(dh, -1, 1))
		rect := video.Rect{
			X: int((centerX - float64(bw/2)) * float64(frameW)),
			Y: int((centerY - float64(bh/2)) * float64(frameH)),
			W: int(bw * float64(frameW)),
			H: int(bh * float64(frameH)),
		}.Clamp(frameW, frameH)
		if rect.Area() == 0 {
			continue
		}
		dets = append(dets, Detection{Box: rect, Score: bestScore, Class: best})
	}
	sort.Slice(dets, func(i, j int) bool { return dets[i].Score > dets[j].Score })
	return dets, nil
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
