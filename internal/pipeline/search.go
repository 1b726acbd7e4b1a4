package pipeline

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/soc"
)

// Automatic pipeline scheduling — the algorithm the paper's conclusion
// announces as under development ("we are currently developing the
// algorithm for automatically pipeline scheduling of different models").
//
// Each stage has a set of candidate targets (a device set plus the stage's
// measured duration on that target, from §5.1 profiling). SearchSchedule
// simulates assignments under exclusive resources with the package's one
// scheduler and returns the one with the smallest makespan — automatically
// discovering trade-offs like the paper's manual one (a stage accepting a
// slower solo target to unlock overlap). The paper's space is seven target
// permutations per model; that stops being enumerable the moment stages
// multiply (N-stage pipelines, per-region device assignments), so the
// search enumerates the full cross product where it is small — provably
// optimal there — and runs a beam search over per-stage assignments where it
// is not, ranking partial assignments by the simulated makespan of the
// scheduled prefix.

// TargetOption is one candidate execution target for a stage.
type TargetOption struct {
	// Name identifies the target ("BYOC cpu", "NP-only apu", ...).
	Name string
	// Devices the stage would occupy exclusively.
	Devices []soc.DeviceKind
	// Duration per frame on this target.
	Duration soc.Seconds
}

// StageSpec is one stage of an N-stage pipeline offered to the search.
type StageSpec struct {
	// Name identifies the stage in results ("object-detection", ...).
	Name string
	// Label prefixes the stage's timeline entries ("d", "s", "e").
	Label string
	// Options are the feasible targets (from profiling or the cost model);
	// targets where the model has no statistics are simply not listed.
	Options []TargetOption
}

const (
	// exhaustiveLimit is the assignment count up to which the search
	// enumerates the full cross product; beyond it the beam search runs.
	exhaustiveLimit = 4096
	// beamWidth is the number of partial assignments kept per stage in beam
	// mode.
	beamWidth = 8
)

// SearchResult is the best assignment found.
type SearchResult struct {
	// Choice[i] is the chosen option name of stage i.
	Choice []string
	// Plans[i] is the stage's device set and duration under that choice.
	Plans []StagePlan
	// Pipelined is the simulated makespan; Sequential the unpipelined total.
	Pipelined, Sequential soc.Seconds
	// Evaluated counts schedule simulations; Exhaustive reports which mode
	// ran.
	Evaluated  int
	Exhaustive bool
}

// SearchSchedule finds the per-stage target assignment with the smallest
// simulated pipelined makespan over the given frame count. Exhaustive
// (optimal) for spaces up to 4096 assignments, beam search beyond;
// deterministic in both modes — ties break toward the smaller sequential
// time, then the lexicographically smaller choice key.
func SearchSchedule(stages []StageSpec, frames int) (*SearchResult, error) {
	if frames <= 0 {
		return nil, fmt.Errorf("pipeline: SearchSchedule needs frames > 0")
	}
	if len(stages) == 0 {
		return nil, fmt.Errorf("pipeline: SearchSchedule needs at least one stage")
	}
	size := 1
	for _, st := range stages {
		if len(st.Options) == 0 {
			return nil, fmt.Errorf("pipeline: stage %s has no feasible targets", st.Name)
		}
		if size <= exhaustiveLimit { // stop multiplying once over: no overflow
			size *= len(st.Options)
		}
	}
	if size <= exhaustiveLimit {
		return searchExhaustive(stages, frames)
	}
	return searchBeam(stages, frames)
}

// assignment materializes one choice of option indices (a prefix of the
// stages when idx is shorter) into stage plans.
func assignment(stages []StageSpec, idx []int) ([]StagePlan, []string) {
	plans := make([]StagePlan, len(idx))
	names := make([]string, len(idx))
	for i, oi := range idx {
		o := stages[i].Options[oi]
		plans[i] = StagePlan{Label: stages[i].Label, Devices: o.Devices, Duration: o.Duration}
		names[i] = o.Name
	}
	return plans, names
}

// searchKey is the last tie-break: sorted "i=name" fields rendered with
// fmt.Sprint. Placement records were chosen under this order, so it is fixed.
func searchKey(names []string) string {
	keys := make([]string, len(names))
	for i, n := range names {
		keys[i] = fmt.Sprintf("%d=%s", i, n)
	}
	sort.Strings(keys)
	return fmt.Sprint(keys)
}

type searchCand struct {
	idx                   []int
	pipelined, sequential soc.Seconds
	key                   string
}

func (a *searchCand) betterThan(b *searchCand) bool {
	if a.pipelined != b.pipelined {
		return a.pipelined < b.pipelined
	}
	if a.sequential != b.sequential {
		return a.sequential < b.sequential
	}
	return a.key < b.key
}

// evaluate simulates one (possibly partial) assignment.
func evaluate(stages []StageSpec, idx []int, frames int) (*searchCand, error) {
	plans, names := assignment(stages, idx)
	tl, err := Schedule(plans, uniformCosts(plans, frames))
	if err != nil {
		return nil, err
	}
	return &searchCand{
		idx:        append([]int(nil), idx...),
		pipelined:  tl.Now(),
		sequential: sequentialTime(plans, frames),
		key:        searchKey(names),
	}, nil
}

func searchExhaustive(stages []StageSpec, frames int) (*SearchResult, error) {
	idx := make([]int, len(stages))
	var best *searchCand
	evaluated := 0
	for {
		cand, err := evaluate(stages, idx, frames)
		if err != nil {
			return nil, err
		}
		evaluated++
		if best == nil || cand.betterThan(best) {
			best = cand
		}
		// Odometer increment, last stage fastest.
		i := len(idx) - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(stages[i].Options) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			break
		}
	}
	return finishSearch(stages, best, evaluated, true), nil
}

// searchBeam extends partial assignments stage by stage, keeping the
// beamWidth best-scheduled prefixes. The prefix makespan is monotone under
// extension (adding a stage never shortens the schedule), which makes it a
// sound greedy ranking; keeping several prefixes covers the paper's
// demote-to-overlap trade-off, where the best full pipeline rides a
// prefix that is not locally optimal.
func searchBeam(stages []StageSpec, frames int) (*SearchResult, error) {
	evaluated := 0
	beam := []*searchCand{{idx: []int{}}}
	for si := range stages {
		var next []*searchCand
		for _, state := range beam {
			for oi := range stages[si].Options {
				cand, err := evaluate(stages, append(state.idx, oi), frames)
				if err != nil {
					return nil, err
				}
				evaluated++
				next = append(next, cand)
			}
		}
		sort.Slice(next, func(i, j int) bool { return next[i].betterThan(next[j]) })
		if len(next) > beamWidth {
			next = next[:beamWidth]
		}
		beam = next
	}
	return finishSearch(stages, beam[0], evaluated, false), nil
}

func finishSearch(stages []StageSpec, best *searchCand, evaluated int, exhaustive bool) *SearchResult {
	plans, names := assignment(stages, best.idx)
	return &SearchResult{
		Choice:     names,
		Plans:      plans,
		Pipelined:  best.pipelined,
		Sequential: best.sequential,
		Evaluated:  evaluated,
		Exhaustive: exhaustive,
	}
}

// Describe renders the result compactly ("stage=target" pairs plus times).
func (r *SearchResult) Describe(stages []StageSpec) string {
	parts := make([]string, len(r.Choice))
	for i, c := range r.Choice {
		parts[i] = fmt.Sprintf("%s=%s", stages[i].Name, c)
	}
	mode := "beam"
	if r.Exhaustive {
		mode = "exhaustive"
	}
	return fmt.Sprintf("%s  pipelined=%s sequential=%s (%s, %d evaluated)",
		strings.Join(parts, " "), r.Pipelined, r.Sequential, mode, r.Evaluated)
}
