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
	"io"
	"os"

	"repro/internal/app"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/soc"
	"repro/internal/video"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is showcase on args: it returns the exit status — 0 on success, 1 on
// a failed build or run, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("showcase", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		frames   = fs.Int("frames", 10, "number of video frames")
		faces    = fs.Int("faces", 2, "planted faces per scene")
		objects  = fs.Int("objects", 2, "planted objects per scene")
		width    = fs.Int("width", 160, "frame width")
		height   = fs.Int("height", 120, "frame height")
		seed     = fs.Uint64("seed", 42, "scene seed")
		pipeFlag = fs.Bool("pipeline", false, "compare sequential vs pipelined scheduling")
		traceOut = fs.String("trace", "", "write the live pipelined timeline as Chrome trace JSON (implies -pipeline)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *frames < 1 {
		fmt.Fprintf(stderr, "showcase: -frames is %d, want at least 1\n", *frames)
		return 2
	}
	if *traceOut != "" {
		*pipeFlag = true
	}
	err := showcase(stdout, *frames, *faces, *objects, *width, *height, *seed, *pipeFlag, *traceOut)
	if err != nil {
		fmt.Fprintln(stderr, "showcase:", err)
		return 1
	}
	return 0
}

// showcase builds the three models, runs frames frames of the seeded scene
// through them and prints each frame's verdicts and simulated stage costs;
// with pipe, then the pipeline comparison and the live pipelined run, whose
// timeline goes to traceOut when that is set.
func showcase(stdout io.Writer, frames, faces, objects, width, height int, seed uint64, pipe bool, traceOut string) error {
	fmt.Fprintln(stdout, "building the three showcase models (TFLite SSD, PyTorch DeePixBiS, Keras emotion CNN)...")
	sc, err := app.New(app.DefaultConfig())
	if err != nil {
		return err
	}
	src, err := video.NewSource(width, height, faces, objects, seed)
	if err != nil {
		return err
	}

	var timings []app.StageTiming
	for i := 0; i < frames; i++ {
		f := src.Next()
		res, err := sc.ProcessFrame(f)
		if err != nil {
			return err
		}
		timings = append(timings, res.Timing)
		fmt.Fprintf(stdout, "frame %2d: %d objects, %d face candidates | detect %s, anti-spoof %s, emotion %s\n",
			res.Frame, len(res.Objects), len(res.Faces),
			res.Timing.Detect, res.Timing.AntiSpoof, res.Timing.Emotion)
		for _, fr := range res.Faces {
			verdict := "SPOOF"
			if fr.Real {
				verdict = fmt.Sprintf("real, emotion=%s (%.2f)", fr.Emotion, fr.Confidence)
			}
			fmt.Fprintf(stdout, "    face at (%d,%d,%dx%d): score %.3f -> %s\n",
				fr.Box.X, fr.Box.Y, fr.Box.W, fr.Box.H, fr.SpoofScore, verdict)
		}
	}
	if !pipe {
		return nil
	}

	var det, spoof, emo float64
	for _, t := range timings {
		det += float64(t.Detect)
		spoof += float64(t.AntiSpoof)
		emo += float64(t.Emotion)
	}
	n := float64(len(timings))
	plan := pipeline.PaperAssignment(
		soc.Seconds(det/n), soc.Seconds(spoof/n), soc.Seconds(emo/n))
	res, err := pipeline.Compare(plan, frames)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\npipeline scheduling over %d frames (measured average stage times):\n", frames)
	fmt.Fprintf(stdout, "  sequential: %s\n  pipelined:  %s (%.2fx)\n",
		res.Sequential, res.Pipelined, res.Speedup)
	fmt.Fprint(stdout, res.Timeline.Gantt(100))

	// And the live pipelined executor: real goroutine stages over the
	// same frames, device mutexes enforcing exclusive use.
	src2, err := video.NewSource(width, height, faces, objects, seed)
	if err != nil {
		return err
	}
	live, err := sc.RunLive(src2.Frames(frames))
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\nlive pipelined execution (goroutine stages, real inference):\n")
	fmt.Fprintf(stdout, "  sequential work: %s\n  pipelined makespan: %s (%.2fx)\n",
		live.SequentialTime, live.Makespan, live.Speedup())
	fmt.Fprint(stdout, live.Timeline.Gantt(100))

	if traceOut != "" {
		return writeTimelineTrace(stdout, traceOut, live.Timeline)
	}
	return nil
}

// writeTimelineTrace exports the live pipeline's simulated timeline as a
// Chrome trace: one row per device, so the exclusive-use gaps between the
// three models (the paper's Figure 5 picture) are visible in Perfetto.
func writeTimelineTrace(stdout io.Writer, path string, tl *soc.Timeline) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	spans := soc.TimelineSpans(tl)
	err = obs.WriteChromeTrace(f, spans, soc.SimThreadNames())
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing trace %s: %w", path, err)
	}
	fmt.Fprintf(stdout, "showcase: wrote trace %s (%d spans)\n", path, len(spans))
	return nil
}
