// Command npbench regenerates the paper's evaluation artifacts: Figure 4
// (showcase models × seven target permutations), Figure 5 (pipeline
// scheduling prototype), Figure 6 (extended classifier sweep), Table 1
// (model inventory) and Table 2 (platform specification).
//
// Usage:
//
//	npbench              # everything
//	npbench -fig 4       # one figure
//	npbench -table 1     # one table
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/models"
	"repro/internal/pipeline"
	"repro/internal/relay"
	"repro/internal/soc"
)

func main() {
	var (
		fig    = flag.Int("fig", 0, "regenerate one figure (4, 5 or 6); 0 = all")
		table  = flag.Int("table", 0, "regenerate one table (1 or 2); 0 = all")
		frames = flag.Int("frames", 12, "frame count for the Figure 5 pipeline")
		ext    = flag.Bool("ext", false, "also run the extension experiments (GPU backend, op-level scheduling)")
	)
	flag.Parse()
	sc := soc.NewDimensity800()
	all := *fig == 0 && *table == 0

	if all || *table == 2 {
		fmt.Println(bench.Table2String(sc))
	}
	if all || *table == 1 {
		fmt.Println(bench.Table1String())
	}
	if all || *fig == 4 {
		rows, err := bench.RunFigure4(sc)
		fatal(err)
		fmt.Println(bench.RenderFigure("Figure 4: inference time for the showcase models across targets", rows))
		fmt.Println(bench.RenderComputationSchedule(rows))
	}
	if all || *fig == 6 {
		rows, err := bench.RunFigure6(sc)
		fatal(err)
		fmt.Println(bench.RenderFigure("Figure 6: inference time for more models across targets", rows))
	}
	if all || *fig == 5 {
		res, err := bench.RunFigure5(sc, *frames)
		fatal(err)
		fmt.Printf("Figure 5: pipeline scheduling prototype (%d frames)\n", *frames)
		fmt.Printf("  stage plan: detect=%s on cpu, anti-spoof=%s on cpu+apu, emotion=%s on apu\n",
			res.Plan[0].Duration, res.Plan[1].Duration, res.Plan[2].Duration)
		fmt.Printf("  contended (det on cpu+apu): sequential %s, pipelined %s (%.2fx)\n",
			res.Contention.Sequential, res.Contention.Pipelined, res.Contention.Speedup)
		fmt.Printf("  paper plan (det on cpu):    sequential %s, pipelined %s (%.2fx)\n",
			res.Paper.Sequential, res.Paper.Pipelined, res.Paper.Speedup)
		fmt.Print(res.Gantt)

		stages, err := bench.ShowcaseStages(sc)
		fatal(err)
		auto, err := pipeline.SearchSchedule(stages, *frames)
		fatal(err)
		fmt.Printf("\nautomatic pipeline scheduling (paper's announced future work, %d assignments searched):\n",
			auto.Evaluated)
		fmt.Printf("  detect=%s, anti-spoof=%s, emotion=%s\n", auto.Choice[0], auto.Choice[1], auto.Choice[2])
		fmt.Printf("  pipelined %s (%.2fx vs its sequential)\n",
			auto.Pipelined, float64(auto.Sequential)/float64(auto.Pipelined))
	}
	if *ext {
		fmt.Println(bench.SupportMatrixString())
		fmt.Println("\nExtension: GPU backend enabled (cpu+gpu+apu vs cpu+apu, greedy planner)")
		rows, err := bench.RunGPUExtension(sc)
		fatal(err)
		for _, r := range rows {
			fmt.Printf("  %-24s cpu+apu %10s   cpu+gpu+apu %10s\n",
				r.Name, r.CPUAPU.Time, r.CPUGPUAPU.Time)
		}
		fmt.Println("\nExtension: automatic quantization (calibrate + rewrite to QNN, relay.quantize-style)")
		aq, err := bench.RunAutoQuantExtension(sc)
		fatal(err)
		fmt.Printf("  %-24s float %10s -> int8 %10s (%.2fx), max output diff %.4f, same top-1: %v\n",
			aq.Model, aq.Float.Time, aq.Quantized.Time,
			float64(aq.Float.Time)/float64(aq.Quantized.Time), aq.MaxAbsDiff, aq.SamePick)

		fmt.Println("\nExtension: model-level vs operation-level scheduling (NeuroPilot-only)")
		for _, spec := range []string{"emotion", "densenet", "mobilenet v1"} {
			s, err := benchModelByName(spec)
			fatal(err)
			cmp, err := bench.RunOpLevelComparison(spec, s, sc)
			fatal(err)
			fmt.Printf("  %-24s model-level %10s (%s)   op-level %10s\n",
				spec, cmp.ModelLevel.Time, cmp.ModelLevelPick, cmp.OpLevel.Time)
		}
	}
}

func benchModelByName(name string) (*relay.Module, error) {
	spec, err := models.Get(name)
	if err != nil {
		return nil, err
	}
	return spec.Build(models.SizeFull)
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "npbench:", err)
		os.Exit(1)
	}
}
