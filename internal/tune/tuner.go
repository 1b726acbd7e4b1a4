package tune

import (
	"fmt"
	"io"

	"repro/internal/relay"
	"repro/internal/topi"
)

// Options configures one tuning run.
type Options struct {
	Measure Measurer
	// Progress, when non-nil, receives one line per task as it finishes.
	Progress io.Writer
}

// TuneModule extracts the tunable tasks of one module and searches each,
// returning the records worth persisting (only tasks whose candidate beat
// the default beyond its spread) plus every task's search result for
// reporting.
func TuneModule(model string, m *relay.Module, opt Options) ([]Record, []TaskResult, error) {
	var ierr error
	m.Functions(func(fname string, f *relay.Function) {
		if ierr != nil {
			return
		}
		if _, err := relay.InferTypes(f); err != nil {
			ierr = fmt.Errorf("tune: inferring types of %s.%s: %w", model, fname, err)
		}
	})
	if ierr != nil {
		return nil, nil, ierr
	}
	return TuneTasks(model, Tasks(m), opt)
}

// TuneTasks searches each task with the in-process measurement harness.
// Tuning temporarily installs per-candidate dispatch tables
// (topi.SetTuning), so it must not run concurrently with inference.
func TuneTasks(model string, tasks []topi.TaskKey, opt Options) ([]Record, []TaskResult, error) {
	var recs []Record
	var results []TaskResult
	for _, task := range tasks {
		bench, err := opt.Measure.NewKernelBench(task)
		if err != nil {
			return recs, results, fmt.Errorf("tune: preparing %s: %w", task, err)
		}
		res, err := SearchTask(task, bench.Measure)
		if err != nil {
			return recs, results, err
		}
		results = append(results, res)
		lo, _ := res.defaultRange()
		if opt.Progress != nil {
			status := "default kept"
			if res.Improved() {
				status = fmt.Sprintf("%s (%.2fx)", res.Candidate, float64(lo)/float64(res.CandidateNS))
			}
			fmt.Fprintf(opt.Progress, "  %-72s default %8d/%8d ns  %-11s %8d ns  %s\n",
				task, res.DefaultNS[0], res.DefaultNS[1], res.Candidate, res.CandidateNS, status)
		}
		if res.Improved() {
			recs = append(recs, Record{
				Schema:    SchemaVersion,
				Kind:      KindKernel,
				Task:      task.String(),
				Config:    FromKernel(res.Candidate),
				CostNS:    res.CandidateNS,
				DefaultNS: lo,
				Model:     model,
			})
		}
	}
	return recs, results, nil
}

// Install builds the kernel dispatch table from records and makes it the
// process-wide active table. It returns the previous table (nil if none).
func Install(recs []Record) (*topi.TuningTable, error) {
	t, err := BuildTable(recs)
	if err != nil {
		return nil, err
	}
	topi.SetTuning(t)
	return t, nil
}

// LoadAndInstall loads a record file and installs its kernel table,
// returning the installed table and total record count. Callers that want
// graceful fallback treat a missing file as "run untuned".
func LoadAndInstall(path string) (*topi.TuningTable, int, error) {
	t, n, err := LoadTable(path)
	if err != nil {
		return nil, 0, err
	}
	topi.SetTuning(t)
	return t, n, nil
}
