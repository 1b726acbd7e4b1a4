// Package pipeline implements the paper's §5 scheduling work: model-level
// computation scheduling (assign each showcase model to its most efficient
// target) and the early pipeline-scheduling prototype of Figure 5, built on
// the concatenation-style list scheduling of inter-frame stage overlap under
// exclusive resource usage.
//
// The paper's final assignment: the anti-spoofing model keeps mobile
// CPU+APU (too many subgraphs to live on one device), the emotion model runs
// APU-only, and the object detector is *demoted* from CPU+APU to CPU-only so
// that it can execute concurrently with the emotion model of the previous
// frame — exclusive use of every resource is preserved while the two stages
// overlap.
//
// A pipeline is a []StagePlan: the stages of one frame in dependency order,
// each with the device set it holds while it runs. Schedule is the one list
// scheduler over such a slice; Compare, SearchSchedule and the live showcase
// (internal/app) all obtain their simulated timelines from it.
package pipeline

import (
	"fmt"

	"repro/internal/soc"
)

// StagePlan is one stage's device assignment and per-frame duration under
// that assignment.
type StagePlan struct {
	// Label prefixes the stage's timeline entries (the frame index is
	// appended): "d", "s", "e" for the showcase.
	Label string
	// Devices the stage occupies exclusively while running.
	Devices []soc.DeviceKind
	// Duration per frame on that target.
	Duration soc.Seconds
}

// PaperAssignment returns the Figure 5 device assignment given per-stage
// durations: detection CPU-only (blue), anti-spoofing CPU+APU (yellow),
// emotion APU-only (green).
func PaperAssignment(detect, spoof, emotion soc.Seconds) []StagePlan {
	return []StagePlan{
		{Label: "d", Devices: []soc.DeviceKind{soc.KindCPU}, Duration: detect},
		{Label: "s", Devices: []soc.DeviceKind{soc.KindCPU, soc.KindAPU}, Duration: spoof},
		{Label: "e", Devices: []soc.DeviceKind{soc.KindAPU}, Duration: emotion},
	}
}

// ContentionAssignment is the pre-pipeline configuration (§5.1): every model
// on its individually-fastest target, object detection on CPU+APU — which
// blocks all overlap (every stage touches a shared resource).
func ContentionAssignment(detect, spoof, emotion soc.Seconds) []StagePlan {
	stages := PaperAssignment(detect, spoof, emotion)
	stages[0].Devices = []soc.DeviceKind{soc.KindCPU, soc.KindAPU}
	return stages
}

// Schedule list-schedules the pipelined execution of len(costs) frames:
// costs[f][i] is what stage i takes on frame f. Within a frame the stages
// are chained (stage i starts after stage i-1 of the same frame); across
// frames a stage waits for every device in its set (exclusive use); frames
// are placed in order, so the timeline is a function of the inputs alone.
func Schedule(stages []StagePlan, costs [][]soc.Seconds) (*soc.Timeline, error) {
	for i, sp := range stages {
		if len(sp.Devices) == 0 {
			return nil, fmt.Errorf("pipeline: stage %d (%q) has no devices", i, sp.Label)
		}
	}
	tl := soc.NewTimeline()
	tl.EnableEvents() // the Gantt and trace consumers read the intervals
	for f, row := range costs {
		if len(row) != len(stages) {
			return nil, fmt.Errorf("pipeline: frame %d has %d costs for %d stages", f, len(row), len(stages))
		}
		var ready soc.Seconds
		for i, sp := range stages {
			if row[i] < 0 {
				return nil, fmt.Errorf("pipeline: stage %d (%q) has negative duration", i, sp.Label)
			}
			ready = tl.ScheduleMulti(sp.Devices, fmt.Sprintf("%s%d", sp.Label, f), ready, row[i])
		}
	}
	return tl, nil
}

// uniformCosts is the static model's input to Schedule: every frame costs
// each stage its planned Duration.
func uniformCosts(stages []StagePlan, frames int) [][]soc.Seconds {
	row := make([]soc.Seconds, len(stages))
	for i, sp := range stages {
		row[i] = sp.Duration
	}
	costs := make([][]soc.Seconds, frames)
	for f := range costs {
		costs[f] = row
	}
	return costs
}

// sequentialTime is the unpipelined application: every stage of every frame
// strictly in order.
func sequentialTime(stages []StagePlan, frames int) soc.Seconds {
	var perFrame soc.Seconds
	for _, sp := range stages {
		perFrame += sp.Duration
	}
	return perFrame * soc.Seconds(frames)
}

// Result summarizes a sequential-vs-pipelined comparison (the Figure 5
// experiment).
type Result struct {
	Sequential soc.Seconds
	Pipelined  soc.Seconds
	Speedup    float64
	Timeline   *soc.Timeline
}

// Compare simulates the stages over the given frame count at their planned
// durations, sequentially and pipelined.
func Compare(stages []StagePlan, frames int) (Result, error) {
	tl, err := Schedule(stages, uniformCosts(stages, frames))
	if err != nil {
		return Result{}, err
	}
	r := Result{Sequential: sequentialTime(stages, frames), Pipelined: tl.Now(), Timeline: tl}
	if r.Pipelined > 0 {
		r.Speedup = float64(r.Sequential) / float64(r.Pipelined)
	}
	return r, nil
}
