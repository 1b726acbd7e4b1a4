package pipeline_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/pipeline"
	"repro/internal/soc"
)

// TestSearchScheduleReproducesFigure5: the cost-model placement search —
// in both exhaustive and beam mode — must find a showcase-pipeline schedule
// at least as good as the paper's hand-built Figure 5 assignment on the
// simulated clock.
func TestSearchScheduleReproducesFigure5(t *testing.T) {
	sc := soc.NewDimensity800()
	const frames = 12
	fig5, err := bench.RunFigure5(sc, frames)
	if err != nil {
		t.Fatal(err)
	}
	stages, err := bench.ShowcaseStages(sc)
	if err != nil {
		t.Fatal(err)
	}

	ex, err := pipeline.SearchSchedule(stages, frames)
	if err != nil {
		t.Fatal(err)
	}
	if !ex.Exhaustive {
		t.Fatalf("three-stage space not enumerated (%d evaluated)", ex.Evaluated)
	}
	if ex.Pipelined > fig5.Paper.Pipelined+1e-12 {
		t.Errorf("exhaustive search (%s) worse than the Figure 5 plan (%s): %v",
			ex.Pipelined, fig5.Paper.Pipelined, ex.Choice)
	}

	beam, err := pipeline.SearchBeam(stages, frames)
	if err != nil {
		t.Fatal(err)
	}
	if beam.Exhaustive {
		t.Fatal("beam search reported exhaustive mode")
	}
	if beam.Pipelined > ex.Pipelined+1e-12 {
		t.Errorf("beam search (%s) worse than the exhaustive optimum (%s): %v vs %v",
			beam.Pipelined, ex.Pipelined, beam.Choice, ex.Choice)
	}
}
