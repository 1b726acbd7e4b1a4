package pipeline_test

import (
	"fmt"

	"repro/internal/pipeline"
	"repro/internal/soc"
)

// Example reproduces the paper's Figure 5 reasoning with round numbers:
// detection can run in 8 ms sharing CPU+APU or 12 ms on the CPU alone;
// demoting it unlocks overlap with the emotion stage and wins overall.
func Example() {
	frames := 10
	contended, _ := pipeline.Compare(pipeline.ContentionAssignment(8e-3, 20e-3, 8e-3), frames)
	paper, _ := pipeline.Compare(pipeline.PaperAssignment(12e-3, 20e-3, 8e-3), frames)
	fmt.Printf("contended: %s (%.2fx)\n", contended.Pipelined, contended.Speedup)
	fmt.Printf("paper:     %s (%.2fx)\n", paper.Pipelined, paper.Speedup)

	// The placement search discovers the same trade-off.
	auto, _ := pipeline.SearchSchedule([]pipeline.StageSpec{
		{Name: "object-detection", Label: "d", Options: []pipeline.TargetOption{
			{Name: "cpu+apu", Devices: []soc.DeviceKind{soc.KindCPU, soc.KindAPU}, Duration: 8e-3},
			{Name: "cpu", Devices: []soc.DeviceKind{soc.KindCPU}, Duration: 12e-3},
		}},
		{Name: "anti-spoofing", Label: "s", Options: []pipeline.TargetOption{
			{Name: "cpu+apu", Devices: []soc.DeviceKind{soc.KindCPU, soc.KindAPU}, Duration: 20e-3},
		}},
		{Name: "emotion", Label: "e", Options: []pipeline.TargetOption{
			{Name: "apu", Devices: []soc.DeviceKind{soc.KindAPU}, Duration: 8e-3},
		}},
	}, frames)
	fmt.Printf("auto picks detection on: %s\n", auto.Choice[0])
	// Output:
	// contended: 360.000ms (1.00x)
	// paper:     328.000ms (1.22x)
	// auto picks detection on: cpu
}
