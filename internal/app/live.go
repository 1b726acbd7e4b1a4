package app

import (
	"repro/internal/pipeline"
	"repro/internal/soc"
	"repro/internal/video"
)

// The live pipelined executor: the §5.2 prototype applied to the *actual*
// application rather than to averaged stage times. One goroutine per stage
// (detect → anti-spoof → emotion) processes different frames concurrently;
// per-device mutexes enforce the exclusive-resource rule in wall-clock time.
// The simulated timeline is not recorded while the goroutines race: it is
// the static scheduler (pipeline.Schedule) run afterwards on the per-frame
// stage costs the frames measured, so it depends on the frames alone.

// LiveResult is the outcome of a pipelined run.
type LiveResult struct {
	Results []*FrameResult
	// Makespan is the simulated completion time of the last frame.
	Makespan soc.Seconds
	// SequentialTime is Σ of all stage costs (what unpipelined execution
	// would take).
	SequentialTime soc.Seconds
	Timeline       *soc.Timeline
}

// Speedup is the pipelining gain.
func (r *LiveResult) Speedup() float64 {
	if r.Makespan <= 0 {
		return 1
	}
	return float64(r.SequentialTime) / float64(r.Makespan)
}

// liveItem carries one frame through the stage channels.
type liveItem struct {
	frame      *video.Frame
	res        *FrameResult
	candidates []video.Rect
	err        error
}

// RunLive processes the frames through the three-stage pipeline under the
// Figure 5 device assignment. Frame results are identical to sequential
// ProcessFrame calls (same models, same inputs); only the schedule differs.
func (s *Showcase) RunLive(frames []*video.Frame) (*LiveResult, error) {
	// Device sets only: the durations are what each frame measures below.
	plan := pipeline.PaperAssignment(0, 0, 0)
	run := []func(*liveItem) error{
		func(it *liveItem) (err error) {
			it.res, it.candidates, err = s.DetectStage(it.frame)
			return err
		},
		func(it *liveItem) error { return s.SpoofStage(it.frame, it.res, it.candidates) },
		func(it *liveItem) error { return s.EmotionStage(it.frame, it.res) },
	}

	// Every channel holds all frames, so no stage ever blocks on its
	// successor and each goroutine ends when its input is closed.
	locks := &pipeline.DeviceLocks{}
	ch := make(chan *liveItem, len(frames))
	for _, f := range frames {
		ch <- &liveItem{frame: f}
	}
	close(ch)
	for i := range run {
		out := make(chan *liveItem, len(frames))
		go runStage(locks, plan[i].Devices, run[i], ch, out)
		ch = out
	}

	res := &LiveResult{}
	costs := make([][]soc.Seconds, 0, len(frames))
	var firstErr error
	for it := range ch { // FIFO: frames leave the last stage in order
		if firstErr == nil {
			firstErr = it.err
		}
		if firstErr != nil {
			continue // keep draining: the loop ends once every stage has returned
		}
		t := it.res.Timing
		res.Results = append(res.Results, it.res)
		res.SequentialTime += t.Total()
		costs = append(costs, []soc.Seconds{t.Detect, t.AntiSpoof, t.Emotion})
	}
	if firstErr != nil {
		return nil, firstErr
	}
	tl, err := pipeline.Schedule(plan, costs)
	if err != nil {
		return nil, err
	}
	res.Timeline, res.Makespan = tl, tl.Now()
	return res, nil
}

// runStage is one stage's goroutine: it holds the stage's devices while it
// runs a frame, passes frames on in arrival order, and lets a frame that
// already failed through untouched.
func runStage(locks *pipeline.DeviceLocks, devs []soc.DeviceKind, run func(*liveItem) error, in <-chan *liveItem, out chan<- *liveItem) {
	defer close(out)
	for it := range in {
		if it.err == nil {
			locks.Lock(devs)
			it.err = run(it)
			locks.Unlock(devs)
		}
		out <- it
	}
}
