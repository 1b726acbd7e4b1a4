// Command nptune is the profile-guided autotuner driver: it extracts the
// convolution tasks of zoo models, measures each under the strategy the
// built-in rule does not pick, between two measurements of the default,
// and writes the strategies that won beyond that spread to a tuning-record
// file that npc/npserve load with -tune-with. It also searches the
// showcase-pipeline device placement with the simulated cost model and
// records the chosen assignment.
//
// Usage:
//
//	nptune -zoo emotion,deepixbis -o tuning_records.json     # tune two models
//	nptune -zoo all -o tuning_records.json                   # the whole zoo
//	nptune -pipeline -o tuning_records.json                  # placement search (appends to kernel records)
//	nptune -merge a.json,b.json -o merged.json               # lower-cost-wins merge
//	nptune -show tuning_records.json                         # inspect a record file
//	nptune -check tuning_records.json -zoo emotion           # audit a record file against a model
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/models"
	"repro/internal/pipeline"
	"repro/internal/relay"
	"repro/internal/soc"
	"repro/internal/tune"
)

func main() {
	var (
		zooArg    = flag.String("zoo", "", `comma-separated zoo models to tune, or "all"`)
		sizeArg   = flag.String("size", "lite", "zoo model build preset: lite|full")
		outPath   = flag.String("o", "tuning_records.json", "output record file")
		verify    = flag.Bool("verify-bitwise", true, "re-check every candidate's output against the default config")
		pipeFlag  = flag.Bool("pipeline", false, "search the showcase-pipeline device placement and record it")
		frames    = flag.Int("frames", 12, "frame count for -pipeline")
		mergeArg  = flag.String("merge", "", "comma-separated record files to merge into -o")
		showArg   = flag.String("show", "", "print a record file and exit")
		checkArg  = flag.String("check", "", "record file to check against -zoo: loads, names only the model's tasks, re-writes byte-identically")
		warmup    = flag.Int("warmup", 1, "warmup runs per candidate")
		reps      = flag.Int("reps", 3, "timed repetitions per measurement (minimum wins)")
		minSample = flag.Int64("min-sample-us", 200, "target duration of one timed repetition, microseconds")
	)
	flag.Parse()

	switch {
	case *showArg != "":
		fatal(showRecords(*showArg))
		return
	case *mergeArg != "":
		fatal(mergeRecords(strings.Split(*mergeArg, ","), *outPath))
		return
	case *checkArg != "":
		fatal(checkRecords(*checkArg, *zooArg, *sizeArg))
		return
	}

	if *zooArg == "" && !*pipeFlag {
		fmt.Fprintln(os.Stderr, "nptune: -zoo, -pipeline, -merge, -show or -check is required")
		flag.Usage()
		os.Exit(2)
	}

	opt := tune.Options{
		Measure: tune.Measurer{
			Warmup:      *warmup,
			Reps:        *reps,
			MinSampleNS: *minSample * 1000,
			Verify:      *verify,
		},
		Progress: os.Stdout,
	}

	var recs []tune.Record
	if *zooArg != "" {
		kernelRecs, err := tuneZoo(*zooArg, *sizeArg, opt)
		fatal(err)
		recs = append(recs, kernelRecs...)
	}
	if *pipeFlag {
		placement, err := tunePipeline(*frames)
		fatal(err)
		recs = append(recs, placement)
	}

	// Merge with an existing record file so incremental runs refine rather
	// than clobber earlier results.
	if prev, err := tune.LoadRecords(*outPath); err == nil {
		recs = tune.Merge(prev, recs)
	} else {
		recs = tune.Merge(recs)
	}
	fatal(tune.WriteRecords(*outPath, recs))
	fmt.Printf("nptune: wrote %d record(s) to %s\n", len(recs), *outPath)
}

// tuneZoo tunes each requested zoo model and returns the improving records.
func tuneZoo(zooArg, sizeArg string, opt tune.Options) ([]tune.Record, error) {
	size := models.SizeLite
	switch sizeArg {
	case "lite":
	case "full":
		size = models.SizeFull
	default:
		return nil, fmt.Errorf("nptune: unknown -size %q (want lite or full)", sizeArg)
	}
	names := strings.Split(zooArg, ",")
	if zooArg == "all" {
		names = models.Names()
	}
	var all []tune.Record
	for _, name := range names {
		name = strings.TrimSpace(name)
		spec, err := models.Get(name)
		if err != nil {
			return nil, err
		}
		mod, err := spec.Build(size)
		if err != nil {
			return nil, err
		}
		fmt.Printf("nptune: tuning %s (%s)\n", spec.Name, sizeArg)
		recs, results, err := tune.TuneModule(spec.Name, mod, opt)
		if err != nil {
			return nil, err
		}
		improved := 0
		for _, r := range results {
			if r.Improved() {
				improved++
			}
		}
		fmt.Printf("nptune: %s: %d task(s), %d improved\n", spec.Name, len(results), improved)
		all = append(all, recs...)
	}
	return all, nil
}

// tunePipeline runs the cost-model placement search over the showcase
// stages and returns it as a placement record.
func tunePipeline(frames int) (tune.Record, error) {
	stages, err := bench.ShowcaseStages(soc.NewDimensity800())
	if err != nil {
		return tune.Record{}, err
	}
	res, err := pipeline.SearchSchedule(stages, frames)
	if err != nil {
		return tune.Record{}, err
	}
	fmt.Printf("nptune: pipeline placement: %s\n", res.Describe(stages))
	choice := map[string]string{}
	for i, c := range res.Choice {
		choice[stages[i].Name] = c
	}
	return tune.Record{
		Schema: tune.SchemaVersion,
		Kind:   tune.KindPlacement,
		Task:   "pipeline|showcase",
		Choice: choice,
		CostNS: int64(res.Pipelined * 1e9),
		Model:  "showcase",
	}, nil
}

// mergeRecords implements -merge: lower-cost-wins across all inputs.
func mergeRecords(paths []string, out string) error {
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
	fmt.Printf("nptune: merged %d file(s) into %s (%d record(s))\n", len(paths), out, len(merged))
	return nil
}

// showRecords implements -show.
func showRecords(path string) error {
	recs, err := tune.LoadRecords(path)
	if err != nil {
		return err
	}
	fmt.Printf("%-10s %-72s %-28s %12s %12s %s\n", "kind", "task", "config/choice", "cost", "default", "model")
	for _, r := range recs {
		detail := r.Config.Kernel().String()
		if r.Kind == tune.KindPlacement {
			parts := make([]string, 0, len(r.Choice))
			for s, tgt := range r.Choice {
				parts = append(parts, s+"="+tgt)
			}
			detail = strings.Join(parts, " ")
		}
		def := "-"
		if r.DefaultNS > 0 {
			def = fmt.Sprintf("%d ns", r.DefaultNS)
		}
		fmt.Printf("%-10s %-72s %-28s %9d ns %12s %s\n", r.Kind, r.Task, detail, r.CostNS, def, r.Model)
	}
	fmt.Printf("%d record(s)\n", len(recs))
	return nil
}

// checkRecords implements -check, the tune-smoke gate: tune.CheckFile's
// deterministic audit of the file against one zoo model's tasks, then a
// report of how many dispatch decisions the records change — zero is not a
// failure, since on a noisy runner no candidate may beat the default's
// spread.
func checkRecords(path, zooArg, sizeArg string) error {
	if zooArg == "" || zooArg == "all" {
		return fmt.Errorf("nptune: -check needs a single -zoo model")
	}
	size := models.SizeLite
	if sizeArg == "full" {
		size = models.SizeFull
	}
	spec, err := models.Get(zooArg)
	if err != nil {
		return err
	}
	mod, err := spec.Build(size)
	if err != nil {
		return err
	}
	var ierr error
	mod.Functions(func(name string, f *relay.Function) {
		if ierr == nil {
			_, ierr = relay.InferTypes(f)
		}
	})
	if ierr != nil {
		return ierr
	}
	tasks := tune.Tasks(mod)
	tbl, err := tune.CheckFile(path, tasks)
	if err != nil {
		return err
	}
	fmt.Printf("nptune: %s: %d kernel config(s), every one a task of %s; re-writes byte-identically\n",
		path, tbl.Len(), spec.Name)
	changed := 0
	for _, task := range tasks {
		if cfg, ok := tbl.Lookup(task); ok && !cfg.IsDefault() {
			changed++
			fmt.Printf("  %s -> %s\n", task, cfg)
		}
	}
	fmt.Printf("nptune: %d of %d task(s) of %s dispatch with tuned configs\n", changed, len(tasks), spec.Name)
	return nil
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "nptune:", err)
		os.Exit(1)
	}
}
