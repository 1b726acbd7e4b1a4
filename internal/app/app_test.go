package app

import (
	"reflect"
	goruntime "runtime"
	"testing"

	"repro/internal/race"
	"repro/internal/runtime"
	"repro/internal/tensor"
	"repro/internal/video"
)

func TestFaceDetectorFindsPlantedFaces(t *testing.T) {
	src, err := video.NewSource(160, 120, 2, 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	frame := src.Next()
	boxes := NewFaceDetector().Detect(frame.Image)
	if len(boxes) == 0 {
		t.Fatal("no faces detected in a scene with 2 planted faces")
	}
	// Every planted face should be covered by some detected box.
	for _, a := range frame.Truth {
		if !a.IsFace {
			continue
		}
		covered := false
		for _, b := range boxes {
			if video.IoU(a.Box, b) > 0.3 {
				covered = true
			}
		}
		if !covered {
			t.Errorf("planted face at %+v not covered by detections %v", a.Box, boxes)
		}
	}
}

func TestFaceDetectorIgnoresObjects(t *testing.T) {
	src, err := video.NewSource(160, 120, 0, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	frame := src.Next()
	boxes := NewFaceDetector().Detect(frame.Image)
	if len(boxes) != 0 {
		t.Errorf("object-only scene produced %d face boxes", len(boxes))
	}
}

// TestFaceDetectorAllocations: the grid loop reads pixels by flat offset and
// the mask, component map and flood-fill stack are the detector's own, so
// after its first call Detect allocates nothing on a frame without faces —
// whatever the frame size.
func TestFaceDetectorAllocations(t *testing.T) {
	d := NewFaceDetector()
	for _, size := range [][2]int{{160, 120}, {640, 480}} {
		src, err := video.NewSource(size[0], size[1], 0, 3, 7)
		if err != nil {
			t.Fatal(err)
		}
		img := src.Next().Image
		if allocs := testing.AllocsPerRun(10, func() { d.Detect(img) }); allocs != 0 {
			t.Errorf("%dx%d: Detect allocates %v times per call, want 0", size[0], size[1], allocs)
		}
	}
}

// TestFaceDetectorReuseMatchesFresh: a detector that carries its scratch
// from frame to frame finds exactly the boxes a fresh detector finds.
func TestFaceDetectorReuseMatchesFresh(t *testing.T) {
	src, err := video.NewSource(160, 120, 2, 2, 99)
	if err != nil {
		t.Fatal(err)
	}
	reused := NewFaceDetector()
	for _, f := range src.Frames(8) {
		got, want := reused.Detect(f.Image), NewFaceDetector().Detect(f.Image)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d: reused detector found %v, fresh one %v", f.Index, got, want)
		}
	}
}

func TestIoU(t *testing.T) {
	a := video.Rect{X: 0, Y: 0, W: 10, H: 10}
	b := video.Rect{X: 5, Y: 5, W: 10, H: 10}
	got := video.IoU(a, b)
	want := 25.0 / 175.0
	if diff := got - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("IoU = %g, want %g", got, want)
	}
	if video.IoU(a, video.Rect{X: 20, Y: 20, W: 5, H: 5}) != 0 {
		t.Error("disjoint boxes must have IoU 0")
	}
	if video.IoU(a, a) != 1 {
		t.Error("identical boxes must have IoU 1")
	}
}

func TestCropResize(t *testing.T) {
	img := tensor.New(tensor.Float32, tensor.Shape{1, 8, 8, 3})
	img.Fill(0.5)
	out := video.CropResize(img, video.Rect{X: 2, Y: 2, W: 4, H: 4}, 16, 16, 3)
	if !out.Shape.Equal(tensor.Shape{1, 16, 16, 3}) {
		t.Fatalf("crop shape %s", out.Shape)
	}
	if out.At(0, 8, 8, 0) != 0.5 {
		t.Errorf("crop value %g", out.At(0, 8, 8, 0))
	}
	gray := video.CropResize(img, video.Rect{X: 0, Y: 0, W: 8, H: 8}, 4, 4, 1)
	if !gray.Shape.Equal(tensor.Shape{1, 4, 4, 1}) {
		t.Fatalf("gray shape %s", gray.Shape)
	}
	// 0.299+0.587+0.114 = 1 → grayscale of a flat 0.5 frame is 0.5.
	if v := gray.At(0, 2, 2, 0); v < 0.499 || v > 0.501 {
		t.Errorf("grayscale conversion %g", v)
	}
}

func TestShowcaseEndToEnd(t *testing.T) {
	sc, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	src, err := video.NewSource(160, 120, 2, 2, 99)
	if err != nil {
		t.Fatal(err)
	}
	processedFaces := 0
	emotions := 0
	for _, f := range src.Frames(3) {
		res, err := sc.ProcessFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		if res.Timing.Detect <= 0 {
			t.Error("no detection cost recorded")
		}
		processedFaces += len(res.Faces)
		for _, fr := range res.Faces {
			if fr.Real && fr.Emotion == "" {
				t.Error("real face without emotion label")
			}
			if !fr.Real && fr.Emotion != "" {
				t.Error("spoofed face must skip emotion detection (Listing 5 gate)")
			}
			if fr.Real {
				emotions++
			}
		}
	}
	if processedFaces == 0 {
		t.Error("no faces passed the overlap gate in 3 frames")
	}
	t.Logf("processed %d faces, %d emotions", processedFaces, emotions)
}

// TestShowcaseModulesLowerToPlans: all three showcase modules run on the
// planned executor. ExecutorAuto falls back to the interpreter without a word
// when a plan fails to build or verify, and the showcase still works then —
// at many times the allocations — so only this test notices.
func TestShowcaseModulesLowerToPlans(t *testing.T) {
	sc, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	det, spoof, emo := sc.Modules()
	for _, m := range []struct {
		name string
		gm   *runtime.GraphModule
	}{{"detector", det}, {"anti-spoofing", spoof}, {"emotion", emo}} {
		if _, err := m.gm.Lib().Plan(); err != nil {
			t.Errorf("%s: no execution plan, Run falls back to the interpreter: %v", m.name, err)
		}
	}
}

func TestVideoDeterminism(t *testing.T) {
	a, _ := video.NewSource(64, 64, 1, 1, 5)
	b, _ := video.NewSource(64, 64, 1, 1, 5)
	fa, fb := a.Next(), b.Next()
	if !tensor.AllClose(fa.Image, fb.Image, 0, 0) {
		t.Error("same-seed video sources diverge")
	}
}

func TestDecodeSSDGridDerivation(t *testing.T) {
	// 15·g² rows with g=2 → 60 rows.
	boxes := tensor.New(tensor.Float32, tensor.Shape{1, 60, 4})
	scores := tensor.New(tensor.Float32, tensor.Shape{1, 60, 2})
	scores.Fill(0.9)
	dets, err := DecodeSSD(boxes, scores, 100, 100, 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(dets) != 60 {
		t.Errorf("decoded %d detections, want 60", len(dets))
	}
	// Bad row count must fail.
	badBoxes := tensor.New(tensor.Float32, tensor.Shape{1, 61, 4})
	badScores := tensor.New(tensor.Float32, tensor.Shape{1, 61, 2})
	if _, err := DecodeSSD(badBoxes, badScores, 100, 100, 0.5, 0); err == nil {
		t.Error("underivable grid accepted")
	}
}

func TestDecodeSSDTopK(t *testing.T) {
	boxes := tensor.New(tensor.Float32, tensor.Shape{1, 60, 4})
	scores := tensor.New(tensor.Float32, tensor.Shape{1, 60, 2})
	scores.Fill(0.8)
	dets, err := DecodeSSD(boxes, scores, 100, 100, 0.5, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(dets) != 5 {
		t.Errorf("topK not applied: %d", len(dets))
	}
}

// TestDecodeSSDRowsReuse: decoding into a buffer left over from a larger
// frame yields DecodeSSD's rows in DecodeSSD's order.
func TestDecodeSSDRowsReuse(t *testing.T) {
	boxes := tensor.New(tensor.Float32, tensor.Shape{1, 60, 4})
	scores := tensor.New(tensor.Float32, tensor.Shape{1, 60, 3})
	rng := tensor.NewRNG(3)
	boxes.FillUniform(rng, -1, 1)
	scores.FillUniform(rng, 0, 1)
	want, err := DecodeSSD(boxes, scores, 100, 100, 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	stale := make([]Detection, 80)
	for i := range stale {
		stale[i] = Detection{Score: 2, Class: 9}
	}
	got, err := decodeSSDRows(stale, boxes, scores, 100, 100, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("reused buffer decoded %d rows %v, DecodeSSD %d rows %v", len(got), got, len(want), want)
	}
}

// The calibrated anti-spoofing gate must separate live faces from printed
// attacks on the synthetic scenes: both verdicts occur, and they are
// consistent with the planted ground truth.
func TestSpoofGateSeparates(t *testing.T) {
	sc, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	src, err := video.NewSource(160, 120, 2, 2, 99) // face 0 live, face 1 spoofed
	if err != nil {
		t.Fatal(err)
	}
	realSeen, spoofSeen, mismatches, total := 0, 0, 0, 0
	for _, f := range src.Frames(6) {
		res, err := sc.ProcessFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, fr := range res.Faces {
			// Match against ground truth by IoU.
			var truth *video.Actor
			for i := range f.Truth {
				a := &f.Truth[i]
				if a.IsFace && video.IoU(a.Box, fr.Box) > 0.3 {
					truth = a
				}
			}
			if truth == nil {
				continue
			}
			total++
			if fr.Real {
				realSeen++
			} else {
				spoofSeen++
			}
			if fr.Real == truth.Spoofed {
				mismatches++
			}
		}
	}
	if realSeen == 0 || spoofSeen == 0 {
		t.Errorf("gate never exercised both branches: real=%d spoof=%d", realSeen, spoofSeen)
	}
	if total > 0 && mismatches > total/4 {
		t.Errorf("calibrated gate disagrees with ground truth on %d/%d faces", mismatches, total)
	}
}

// TestProcessFrameAllocationBudget pins the frame path's steady state on the
// lite trio: stage-owned inputs and input names, flat-indexed resize and
// detection, split launches from recycled job records, broadcasting binaries
// without a per-launch broadcaster, each model's simulated charge computed
// once. One 32-frame ring pass of the benchmark's scene, after one warm pass,
// stays under 10 KB and 18 objects a frame: about 1.7 times the worst bytes
// seen and the object count plus an eighth. It reads 1.1 KB and 6 objects
// (1.3 KB and 16 while the SSD rows were sorted by sort.Slice, which builds
// a reflect swapper on every call, and every convolution packed its
// patches into pooled panels); more in a run where a collection during the
// passes empties the kernels' scratch pools (the indirect launches' widened
// k-pairs, the fused launches' int32 rows), which refill. The convolutions'
// offset tables and the depthwise layers' tap tables and zero-point rows are
// prepared with the plan state, in the warm pass, and are not pooled; the
// quantized depthwise row reads the raw image and pools nothing. It read 6.6 KB and 142 objects
// while every Run charged a fresh profile and every stage built an input-name
// slice, 9.6 KB and 216 while every broadcasting multiply built its
// broadcaster, 8 264 KB and 246 247 when every At/Set heap-allocated its
// index list.
func TestProcessFrameAllocationBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector makes sync.Pool drop the kernels' scratch buffers at random")
	}
	sc, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	src, err := video.NewSource(160, 120, 2, 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	frames := src.Frames(32)
	pass := func() {
		for _, f := range frames {
			if _, err := sc.ProcessFrame(f); err != nil {
				t.Fatal(err)
			}
		}
	}
	pass()
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	pass()
	goruntime.ReadMemStats(&after)
	kb := float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(len(frames))
	objects := float64(after.Mallocs-before.Mallocs) / float64(len(frames))
	t.Logf("%.1f KB and %.0f objects per frame", kb, objects)
	if kb > 10 || objects > 18 {
		t.Errorf("ProcessFrame allocates %.1f KB and %.0f objects per frame, budget 10 KB and 18", kb, objects)
	}
}
