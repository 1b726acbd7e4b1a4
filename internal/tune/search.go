package tune

import (
	"fmt"

	"repro/internal/topi"
)

// The search of one task is an A/B/A measurement. A conv task has one
// candidate, the strategy the built-in rule does not pick for it, so a
// record can never name the decision a launch takes without one. The
// default is measured before and after the candidate, and the gap between
// those two readings is the noise the candidate must beat: it wins only
// when it is faster than both by more than that gap.

// MeasureFunc measures one config for the task under search, returning its
// cost in nanoseconds.
type MeasureFunc func(cfg topi.KernelConfig) (int64, error)

// Candidate is a conv task's one candidate config: the strategy
// topi.TaskKey.DefaultStrategy does not name.
func Candidate(task topi.TaskKey) topi.KernelConfig {
	if task.DefaultStrategy() == topi.ConvIm2col {
		return topi.KernelConfig{ConvStrategy: topi.ConvDirect}
	}
	return topi.KernelConfig{ConvStrategy: topi.ConvIm2col}
}

// TaskResult is the outcome of one task's search.
type TaskResult struct {
	Task        topi.TaskKey
	Candidate   topi.KernelConfig
	CandidateNS int64
	// DefaultNS holds the default config's readings before and after the
	// candidate's.
	DefaultNS [2]int64
}

// defaultRange returns the faster and the slower default reading.
func (r TaskResult) defaultRange() (lo, hi int64) {
	return min(r.DefaultNS[0], r.DefaultNS[1]), max(r.DefaultNS[0], r.DefaultNS[1])
}

// Improved reports whether the candidate beat both default readings by
// more than the gap between them.
func (r TaskResult) Improved() bool {
	lo, hi := r.defaultRange()
	return r.CandidateNS < lo-(hi-lo)
}

// SearchTask measures the default config, the task's candidate, and the
// default again.
func SearchTask(task topi.TaskKey, measure MeasureFunc) (TaskResult, error) {
	res := TaskResult{Task: task, Candidate: Candidate(task)}
	for _, m := range [...]struct {
		cfg topi.KernelConfig
		ns  *int64
	}{
		{topi.KernelConfig{}, &res.DefaultNS[0]},
		{res.Candidate, &res.CandidateNS},
		{topi.KernelConfig{}, &res.DefaultNS[1]},
	} {
		ns, err := measure(m.cfg)
		if err != nil {
			return res, fmt.Errorf("tune: measuring %s for %s: %w", m.cfg, task, err)
		}
		*m.ns = ns
	}
	return res, nil
}
