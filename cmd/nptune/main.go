// Command nptune runs the placement search: it searches the
// showcase-pipeline device placement with the simulated cost model
// (internal/pipeline.SearchSchedule, the paper's §5) and records the chosen
// assignment in a record file, merging with what the file already holds.
//
// Usage:
//
//	nptune -pipeline -o tuning_records.json                  # placement search
//	nptune -merge a.json,b.json -o merged.json               # lower-cost-wins merge
//	nptune -show tuning_records.json                         # inspect a record file
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/pipeline"
	"repro/internal/soc"
	"repro/internal/tune"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is nptune on args: it returns the exit status — 0 on success, 1 on a
// failed search or record file, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nptune", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		outPath  = fs.String("o", "tuning_records.json", "output record file")
		pipeFlag = fs.Bool("pipeline", false, "search the showcase-pipeline device placement and record it")
		frames   = fs.Int("frames", 12, "frame count for -pipeline")
		mergeArg = fs.String("merge", "", "comma-separated record files to merge into -o")
		showArg  = fs.String("show", "", "print a record file and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var err error
	switch {
	case *showArg != "":
		err = showRecords(stdout, *showArg)
	case *mergeArg != "":
		err = mergeRecords(stdout, strings.Split(*mergeArg, ","), *outPath)
	case *pipeFlag:
		err = searchPipeline(stdout, *frames, *outPath)
	default:
		fmt.Fprintln(stderr, "nptune: -pipeline, -merge or -show is required")
		fs.Usage()
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "nptune:", err)
		return 1
	}
	return 0
}

// searchPipeline runs the cost-model placement search over the showcase
// stages and merges its record into the file at out, if there is one, so
// that incremental runs refine rather than clobber earlier results. A file
// at out that does not load is an error, not overwritten.
func searchPipeline(stdout io.Writer, frames int, out string) error {
	stages, err := bench.ShowcaseStages(soc.NewDimensity800())
	if err != nil {
		return err
	}
	res, err := pipeline.SearchSchedule(stages, frames)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "nptune: pipeline placement: %s\n", res.Describe(stages))
	choice := map[string]string{}
	for i, c := range res.Choice {
		choice[stages[i].Name] = c
	}
	recs := []tune.Record{{
		Schema: tune.SchemaVersion,
		Kind:   tune.KindPlacement,
		Task:   "pipeline|showcase",
		Choice: choice,
		CostNS: int64(res.Pipelined * 1e9),
		Model:  "showcase",
	}}
	prev, err := tune.LoadRecords(out)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	recs = tune.Merge(prev, recs)
	if err := tune.WriteRecords(out, recs); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "nptune: wrote %d record(s) to %s\n", len(recs), out)
	return nil
}

// mergeRecords implements -merge: lower-cost-wins across all inputs.
func mergeRecords(stdout io.Writer, paths []string, out string) error {
	sets := make([][]tune.Record, 0, len(paths))
	for _, p := range paths {
		recs, err := tune.LoadRecords(strings.TrimSpace(p))
		if err != nil {
			return err
		}
		sets = append(sets, recs)
	}
	merged := tune.Merge(sets...)
	if err := tune.WriteRecords(out, merged); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "nptune: merged %d file(s) into %s (%d record(s))\n", len(paths), out, len(merged))
	return nil
}

// showRecords implements -show.
func showRecords(stdout io.Writer, path string) error {
	recs, err := tune.LoadRecords(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%-10s %-20s %-10s %15s  %s\n", "kind", "task", "model", "cost", "choice")
	for _, r := range recs {
		fmt.Fprintf(stdout, "%-10s %-20s %-10s %12d ns  %s\n", r.Kind, r.Task, r.Model, r.CostNS, r.Choices())
	}
	fmt.Fprintf(stdout, "%d record(s)\n", len(recs))
	return nil
}
