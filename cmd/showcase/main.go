// Command showcase runs the paper's §4 application: synthetic video frames
// flow through the TFLite object detector, the classical face detector, the
// PyTorch anti-spoofing model and the Keras emotion classifier, with the
// Listing 5 gating between stages. Per-frame verdicts and simulated stage
// costs are printed.
//
// Usage:
//
//	showcase -frames 10 -faces 2 -objects 2
//	showcase -frames 20 -pipeline        # also report the §5.2 pipeline comparison
//	showcase -frames 20 -trace=out.json  # Chrome trace of the pipelined timeline
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/app"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/soc"
	"repro/internal/video"
)

func main() {
	var (
		frames   = flag.Int("frames", 10, "number of video frames")
		faces    = flag.Int("faces", 2, "planted faces per scene")
		objects  = flag.Int("objects", 2, "planted objects per scene")
		width    = flag.Int("width", 160, "frame width")
		height   = flag.Int("height", 120, "frame height")
		seed     = flag.Uint64("seed", 42, "scene seed")
		pipeFlag = flag.Bool("pipeline", false, "compare sequential vs pipelined scheduling")
		traceOut = flag.String("trace", "", "write the live pipelined timeline as Chrome trace JSON (implies -pipeline)")
	)
	flag.Parse()
	if *traceOut != "" {
		*pipeFlag = true
	}

	fmt.Println("building the three showcase models (TFLite SSD, PyTorch DeePixBiS, Keras emotion CNN)...")
	sc, err := app.New(app.DefaultConfig())
	fatal(err)
	src, err := video.NewSource(*width, *height, *faces, *objects, *seed)
	fatal(err)

	var timings []app.StageTiming
	for i := 0; i < *frames; i++ {
		f := src.Next()
		res, err := sc.ProcessFrame(f)
		fatal(err)
		timings = append(timings, res.Timing)
		fmt.Printf("frame %2d: %d objects, %d face candidates | detect %s, anti-spoof %s, emotion %s\n",
			res.Frame, len(res.Objects), len(res.Faces),
			res.Timing.Detect, res.Timing.AntiSpoof, res.Timing.Emotion)
		for _, fr := range res.Faces {
			verdict := "SPOOF"
			if fr.Real {
				verdict = fmt.Sprintf("real, emotion=%s (%.2f)", fr.Emotion, fr.Confidence)
			}
			fmt.Printf("    face at (%d,%d,%dx%d): score %.3f -> %s\n",
				fr.Box.X, fr.Box.Y, fr.Box.W, fr.Box.H, fr.SpoofScore, verdict)
		}
	}

	if *pipeFlag {
		var det, spoof, emo float64
		for _, t := range timings {
			det += float64(t.Detect)
			spoof += float64(t.AntiSpoof)
			emo += float64(t.Emotion)
		}
		n := float64(len(timings))
		plan := pipeline.PaperAssignment(
			soc.Seconds(det/n), soc.Seconds(spoof/n), soc.Seconds(emo/n))
		res, err := pipeline.Compare(plan, *frames)
		fatal(err)
		fmt.Printf("\npipeline scheduling over %d frames (measured average stage times):\n", *frames)
		fmt.Printf("  sequential: %s\n  pipelined:  %s (%.2fx)\n",
			res.Sequential, res.Pipelined, res.Speedup)
		fmt.Print(res.Timeline.Gantt(100))

		// And the live pipelined executor: real goroutine stages over the
		// same frames, device mutexes enforcing exclusive use.
		src2, err := video.NewSource(*width, *height, *faces, *objects, *seed)
		fatal(err)
		live, err := sc.RunLive(src2.Frames(*frames))
		fatal(err)
		fmt.Printf("\nlive pipelined execution (goroutine stages, real inference):\n")
		fmt.Printf("  sequential work: %s\n  pipelined makespan: %s (%.2fx)\n",
			live.SequentialTime, live.Makespan, live.Speedup())
		fmt.Print(live.Timeline.Gantt(100))

		if *traceOut != "" {
			fatal(writeTimelineTrace(*traceOut, live.Timeline))
		}
	}
}

// writeTimelineTrace exports the live pipeline's simulated timeline as a
// Chrome trace: one row per device, so the exclusive-use gaps between the
// three models (the paper's Figure 5 picture) are visible in Perfetto.
func writeTimelineTrace(path string, tl *soc.Timeline) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	spans := soc.TimelineSpans(tl)
	if err := obs.WriteChromeTrace(f, spans, soc.SimThreadNames()); err != nil {
		return err
	}
	fmt.Printf("showcase: wrote trace %s (%d spans)\n", path, len(spans))
	return nil
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "showcase:", err)
		os.Exit(1)
	}
}
