package main

import (
	"fmt"
	"reflect"
	"time"

	"repro/internal/app"
	"repro/internal/parallel"
	"repro/internal/runtime"
	"repro/internal/video"
)

const (
	// ringFrames is the video ring one op walks.
	ringFrames = 32
	// sceneSeed fixes the video content (cmd/showcase's default scene). How
	// many faces a frame shows decides how many inferences it costs, and that
	// differs by 50% between scenes; -seed therefore only orders the ring, so
	// every seed measures the same work.
	sceneSeed = 42
	// Scene geometry as cmd/showcase's defaults.
	frameW, frameH, sceneFaces, sceneObjects = 160, 120, 2, 2
)

// showcaseWorkload is showcase_frames: the paper's application on the
// library path, one op = Showcase.ProcessFrame on the next ring frame.
type showcaseWorkload struct {
	sc     *app.Showcase
	frames []*video.Frame
	// want[i] is the reference verdict for ring frame i, from a second
	// Showcase running the interpreter executor.
	want    []*app.FrameResult
	next    int
	frameMs float64 // median video.Source.Next, ms
}

func (w *showcaseWorkload) setup(cfg config, rec *recorder) error {
	var err error
	rec.timed("video frames", "setup", rowSetup, 0, func() {
		var src *video.Source
		if src, err = video.NewSource(frameW, frameH, sceneFaces, sceneObjects, sceneSeed); err != nil {
			return
		}
		var lat []float64
		scene := make([]*video.Frame, ringFrames)
		for i := range scene {
			start := time.Now()
			scene[i] = src.Next()
			lat = append(lat, ms(time.Since(start)))
		}
		w.frameMs = median(lat)
		for _, i := range newRNG(cfg.Seed).perm(ringFrames) {
			w.frames = append(w.frames, scene[i])
		}
	})
	if err != nil {
		return err
	}
	rec.timed("reference pass (interpreter)", "setup", rowSetup, 0, func() {
		refCfg := app.DefaultConfig()
		refCfg.Executor = runtime.ExecutorInterp
		var ref *app.Showcase
		if ref, err = app.New(refCfg); err != nil {
			return
		}
		for _, f := range w.frames {
			var res *app.FrameResult
			if res, err = ref.ProcessFrame(f); err != nil {
				return
			}
			w.want = append(w.want, res)
		}
	})
	if err != nil {
		return err
	}
	rec.timed("app.New", "setup", rowSetup, 0, func() { w.sc, err = app.New(app.DefaultConfig()) })
	if err != nil {
		return err
	}
	// Warm-up: one pass over the ring, verified.
	rec.timed("warm-up", "setup", rowSetup, 0, func() {
		for i, f := range w.frames[:cfg.warm(ringFrames)] {
			var res *app.FrameResult
			if res, err = w.sc.ProcessFrame(f); err != nil {
				return
			}
			if err = w.matches(i, res); err != nil {
				return
			}
		}
	})
	return err
}

func (w *showcaseWorkload) teardown() {}

// simMs is the mean simulated device time of a frame over one ring pass.
func (w *showcaseWorkload) simMs() (string, float64) {
	var sim []float64
	for _, res := range w.want {
		sim = append(sim, res.Timing.Total().Ms())
	}
	return "sim_ms_per_op", mean(sim)
}

// matches compares a frame's verdict with the reference pass: objects, face
// boxes, spoof scores, emotions and confidences exactly; stage sim-ms up to
// summation order.
func (w *showcaseWorkload) matches(i int, got *app.FrameResult) error {
	want := w.want[i]
	if !reflect.DeepEqual(got.Objects, want.Objects) || !reflect.DeepEqual(got.Faces, want.Faces) {
		return fmt.Errorf("frame %d: verdict %+v, reference pass had %+v", i, *got, *want)
	}
	if !sameSim(got.Timing.Detect.Ms(), want.Timing.Detect.Ms()) ||
		!sameSim(got.Timing.AntiSpoof.Ms(), want.Timing.AntiSpoof.Ms()) ||
		!sameSim(got.Timing.Emotion.Ms(), want.Timing.Emotion.Ms()) {
		return fmt.Errorf("frame %d: stage sim-ms %+v, reference pass had %+v", i, got.Timing, want.Timing)
	}
	return nil
}

func (w *showcaseWorkload) measure(d time.Duration, rec *recorder) *window {
	win := &window{}
	mem := markMem()
	begin := time.Now()
	// The window closes on a whole pass over the ring, so every window holds
	// the same mix of cheap and costly frames.
	for time.Since(begin) < d || w.next%ringFrames != 0 {
		i := w.next % ringFrames
		w.next++
		win.Attempted++
		start := time.Now()
		res, err := w.sc.ProcessFrame(w.frames[i])
		lat := time.Since(start)
		rec.emit("ProcessFrame", "", rowClient, w.next, start, lat)
		if err == nil {
			err = w.matches(i, res)
		}
		if err != nil {
			win.fail(true, "%v", err)
			continue
		}
		win.LatMs = append(win.LatMs, ms(lat))
	}
	win.Elapsed = time.Since(begin)
	win.Mem = mem.since()
	return win
}

// layers walks the ring once stage by stage (DetectStage / SpoofStage /
// EmotionStage are the public calls ProcessFrame makes) with executor
// profiling on, so each stage and each kernel row is timed per frame.
func (w *showcaseWorkload) layers(rec *recorder, _ *window, out map[string]float64) error {
	det, spoof, emo := w.sc.Modules()
	profile := func(on bool) {
		for _, gm := range []*runtime.GraphModule{det, spoof, emo} {
			gm.SetProfiling(on)
		}
	}
	profile(true)
	defer profile(false)
	var detMs, spoofMs, emoMs, runMs []float64
	shares := map[string]float64{}
	faces := 0
	for i, f := range w.frames {
		var (
			res   *app.FrameResult
			cands []video.Rect
			err   error
		)
		d := rec.timed("app.DetectStage", "frame", rowLayers, i, func() { res, cands, err = w.sc.DetectStage(f) })
		if err != nil {
			return err
		}
		addSpanShares(det, 1.0/ringFrames, shares)
		s := rec.timed("app.SpoofStage", "frame", rowLayers, i, func() { err = w.sc.SpoofStage(f, res, cands) })
		if err != nil {
			return err
		}
		// TraceSpans holds the stage's last inference; every inference of a
		// model costs the same, so scale it by the stage's run count.
		addSpanShares(spoof, float64(len(cands))/ringFrames, shares)
		real := 0
		for _, fr := range res.Faces {
			if fr.Real {
				real++
			}
		}
		e := rec.timed("app.EmotionStage", "frame", rowLayers, i, func() { err = w.sc.EmotionStage(f, res) })
		if err != nil {
			return err
		}
		addSpanShares(emo, float64(real)/ringFrames, shares)
		if err := w.matches(i, res); err != nil {
			return fmt.Errorf("staged %w", err)
		}
		detMs, spoofMs, emoMs = append(detMs, d), append(spoofMs, s), append(emoMs, e)
		runMs = append(runMs, d+s+e)
		faces += len(res.Faces)
	}
	// Means per frame, not medians: most frames run no emotion inference, and
	// the three rows should sum to the mean frame time.
	out["app.detect_ms"] = mean(detMs)
	out["app.spoof_ms"] = mean(spoofMs)
	out["app.emotion_ms"] = mean(emoMs)
	out["app.faces_per_frame"] = float64(faces) / ringFrames
	out["video.frame_ms"] = w.frameMs
	out["runtime.run_ms"] = 0
	for k, v := range shares {
		out[k] = v
		out["runtime.run_ms"] += v
	}
	out["bench.roundtrip_ms"] = mean(runMs)
	out["bench.run_share"] = out["runtime.run_ms"] / mean(runMs)
	out["parallel.max_workers"] = float64(parallel.MaxWorkers())
	return standaloneKernels(rec, out)
}
