// Scheduling: the paper's §5 — measure each showcase model across the seven
// target permutations (computation scheduling, §5.1), then demote the object
// detector from CPU+APU to CPU-only so it can overlap the emotion stage and
// compare sequential vs pipelined execution (pipeline scheduling, §5.2 /
// Figure 5).
package main

import (
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/soc"
)

func main() {
	sc := soc.NewDimensity800()

	fmt.Println("== computation scheduling (§5.1): measure all permutations ==")
	rows, err := bench.RunFigure4(sc)
	if err != nil {
		fail(err)
	}
	fmt.Print(bench.RenderFigure("", rows))
	fmt.Println("\nper-model best target:")
	for _, r := range rows {
		best, cell := r.Best()
		fmt.Printf("  %-24s -> %-18s (%s)\n", r.Name, best, cell.Time)
	}

	fmt.Println("\n== pipeline scheduling (§5.2 / Figure 5) ==")
	res, err := bench.RunFigure5(sc, 12)
	if err != nil {
		fail(err)
	}
	fmt.Printf("object detection demoted to CPU-only: %s per frame (was %s on CPU+APU)\n",
		res.Plan[0].Duration, res.Contention.Sequential/12-res.Plan[1].Duration-res.Plan[2].Duration)
	fmt.Printf("contended  (all stages share CPU+APU): %s for 12 frames\n", res.Contention.Pipelined)
	fmt.Printf("pipelined  (exclusive resources):      %s for 12 frames, %.2fx vs sequential\n",
		res.Paper.Pipelined, res.Paper.Speedup)
	fmt.Println("\nGantt (d=detect on cpu, s=anti-spoof on cpu+apu, e=emotion on apu):")
	fmt.Print(res.Gantt)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "scheduling:", err)
	os.Exit(1)
}
