package topi

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/relay"
	"repro/internal/tensor"
)

// Profile-guided kernel dispatch: the internal/tune autotuner measures
// kernel variants per (op, shape, dtype) task and persists the winners to a
// tuning-record file; at load time the records become a TuningTable
// installed here, and every conv/dense kernel launch consults it before
// picking its strategy, blocking, and parallelism. With no table installed
// (the default) the lookup is one atomic load and every kernel keeps its
// PR 7 hard-coded heuristics, so untuned deployments pay nothing.
//
// Every knob is bitwise-output-preserving by construction: strategy
// switches between kernels already pinned bit-identical (im2col vs direct,
// blocked GEMM vs naive), and blocking/worker knobs only re-partition
// disjoint output ranges whose per-cell reductions keep their k-ascending
// order (tuning_test.go pins this across the whole config space).

// TaskKey identifies one tunable kernel task: the operator plus the problem
// shape and dtype. Dense tasks store the data matrix as N×C with H=W=1 and
// the weight as OC×1×1×ICG. The struct is comparable and built on the
// kernel dispatch path without allocation.
type TaskKey struct {
	Op string
	// Data tensor shape (NHWC).
	N, H, W, C int
	// Weight tensor shape (OHWI; ICG is the per-group input-channel count).
	OC, KH, KW, ICG int
	// Convolution attributes (dense: strides/dilation 1, pads 0, groups 1).
	SH, SW, DH, DW, Groups int
	PadT, PadL, PadB, PadR int
	// Element type of the data operand ("float32", "uint8", ...).
	DType string
}

// String renders the canonical task signature used by tuning-record files.
// ParseTaskKey inverts it.
func (k TaskKey) String() string {
	return fmt.Sprintf("%s|d=%dx%dx%dx%d|w=%dx%dx%dx%d|s=%dx%d|l=%dx%d|p=%d,%d,%d,%d|g=%d|%s",
		k.Op, k.N, k.H, k.W, k.C, k.OC, k.KH, k.KW, k.ICG,
		k.SH, k.SW, k.DH, k.DW, k.PadT, k.PadL, k.PadB, k.PadR, k.Groups, k.DType)
}

// ParseTaskKey parses the canonical String() form back into a TaskKey.
func ParseTaskKey(s string) (TaskKey, error) {
	k, ok := parseTaskKey(s)
	if !ok {
		return TaskKey{}, fmt.Errorf("topi: malformed task signature %q", s)
	}
	return k, nil
}

func parseTaskKey(s string) (TaskKey, bool) {
	var k TaskKey
	var fields [8]string
	for i := 0; i < 7; i++ {
		j := strings.IndexByte(s, '|')
		if j < 0 {
			return k, false
		}
		fields[i] = s[:j]
		s = s[j+1:]
	}
	fields[7] = s
	k.Op = fields[0]
	k.DType = fields[7]
	if _, err := fmt.Sscanf(fields[1], "d=%dx%dx%dx%d", &k.N, &k.H, &k.W, &k.C); err != nil {
		return k, false
	}
	if _, err := fmt.Sscanf(fields[2], "w=%dx%dx%dx%d", &k.OC, &k.KH, &k.KW, &k.ICG); err != nil {
		return k, false
	}
	if _, err := fmt.Sscanf(fields[3], "s=%dx%d", &k.SH, &k.SW); err != nil {
		return k, false
	}
	if _, err := fmt.Sscanf(fields[4], "l=%dx%d", &k.DH, &k.DW); err != nil {
		return k, false
	}
	if _, err := fmt.Sscanf(fields[5], "p=%d,%d,%d,%d", &k.PadT, &k.PadL, &k.PadB, &k.PadR); err != nil {
		return k, false
	}
	if _, err := fmt.Sscanf(fields[6], "g=%d", &k.Groups); err != nil {
		return k, false
	}
	return k, k.Op != "" && k.DType != ""
}

// Conv strategy knob values.
const (
	ConvAuto   = ""       // volume-threshold heuristic (the PR 7 default)
	ConvIm2col = "im2col" // force the im2col + blocked-GEMM path
	ConvDirect = "direct" // force the direct kernel
)

// KernelConfig is the knob set one task resolves to. The zero value means
// "use every default" and is indistinguishable from an absent record.
type KernelConfig struct {
	// ConvStrategy selects the convolution algorithm: ConvAuto, ConvIm2col
	// or ConvDirect. Ignored by dense tasks.
	ConvStrategy string
	// GemmMC blocks the GEMM's LHS into runs of at most GemmMC rows
	// (rounded up to the register-tile height), each swept against every
	// N-panel before the next; 0 sweeps all rows at once. Improves LHS
	// locality for tall matrices.
	GemmMC int
	// GemmNC is the minimum number of N register tiles per parallel chunk
	// of the GEMM driver; 0 leaves the chunk size to the launch.
	GemmNC int
	// Workers caps the workers this kernel's parallel loops may use on top
	// of the shared inter/intra-op budget; 0 applies no per-kernel cap.
	Workers int
	// Grain is the minimum iterations per chunk of the kernel's outer
	// parallel loop (conv batch×row loop); 0 applies no minimum.
	Grain int
}

// IsDefault reports whether the config carries no overrides.
func (c KernelConfig) IsDefault() bool { return c == KernelConfig{} }

// String renders the config compactly for reports and record files.
func (c KernelConfig) String() string {
	if c.IsDefault() {
		return "default"
	}
	s := ""
	app := func(f string, args ...interface{}) {
		if s != "" {
			s += " "
		}
		s += fmt.Sprintf(f, args...)
	}
	if c.ConvStrategy != ConvAuto {
		app("conv=%s", c.ConvStrategy)
	}
	if c.GemmMC != 0 {
		app("mc=%d", c.GemmMC)
	}
	if c.GemmNC != 0 {
		app("nc=%d", c.GemmNC)
	}
	if c.Workers != 0 {
		app("workers=%d", c.Workers)
	}
	if c.Grain != 0 {
		app("grain=%d", c.Grain)
	}
	return s
}

// chunkOpts translates the parallelism knobs for a parallel.Region launch.
// Safe on a nil config (returns the unlimited zero value).
func (c *KernelConfig) chunkOpts() parallel.ChunkOpts {
	if c == nil {
		return parallel.ChunkOpts{}
	}
	return parallel.ChunkOpts{MaxWorkers: c.Workers, MinGrain: c.Grain}
}

// gemmOpts is chunkOpts for the GEMM N-tile loop, whose grain knob is
// GemmNC rather than Grain.
func (c *KernelConfig) gemmOpts() parallel.ChunkOpts {
	if c == nil {
		return parallel.ChunkOpts{}
	}
	return parallel.ChunkOpts{MaxWorkers: c.Workers, MinGrain: c.GemmNC}
}

// tunedEntry pairs a config with its dispatch hit count (npc -profile's
// tuned-dispatch audit table).
type tunedEntry struct {
	cfg  KernelConfig
	hits atomic.Int64
}

// TuningTable maps task signatures to tuned configs. Built once (by
// internal/tune from a record file), then read-only; the per-entry hit
// counters are the only mutable state.
type TuningTable struct {
	configs map[TaskKey]*tunedEntry
	hits    atomic.Int64
	misses  atomic.Int64
	// Optional Prometheus series (EnableMetrics).
	obsHits, obsMisses *obs.Counter
}

// NewTuningTable returns an empty table.
func NewTuningTable() *TuningTable {
	return &TuningTable{configs: map[TaskKey]*tunedEntry{}}
}

// Set installs a config for a task (last write wins).
func (t *TuningTable) Set(key TaskKey, cfg KernelConfig) {
	t.configs[key] = &tunedEntry{cfg: cfg}
}

// Len returns the number of tuned tasks.
func (t *TuningTable) Len() int {
	if t == nil {
		return 0
	}
	return len(t.configs)
}

// Lookup returns the tuned config for a task without touching the hit/miss
// accounting (tests and reporting).
func (t *TuningTable) Lookup(key TaskKey) (KernelConfig, bool) {
	if t == nil {
		return KernelConfig{}, false
	}
	e, ok := t.configs[key]
	if !ok {
		return KernelConfig{}, false
	}
	return e.cfg, true
}

// Stats returns the cumulative dispatch hit/miss counts.
func (t *TuningTable) Stats() (hits, misses int64) {
	if t == nil {
		return 0, 0
	}
	return t.hits.Load(), t.misses.Load()
}

// EnableMetrics exports the table through an obs registry:
// np_tune_records_loaded (gauge, task count) plus
// np_tune_task_hits_total / np_tune_task_misses_total counters incremented
// on every kernel dispatch that consults the table.
func (t *TuningTable) EnableMetrics(r *obs.Registry) {
	if t == nil || r == nil {
		return
	}
	r.Gauge("np_tune_records_loaded",
		"Tuned task configs currently installed in the kernel dispatch table.", nil).
		Set(float64(len(t.configs)))
	t.obsHits = r.Counter("np_tune_task_hits_total",
		"Kernel dispatches that found a tuned config for their task.", nil)
	t.obsMisses = r.Counter("np_tune_task_misses_total",
		"Kernel dispatches whose task had no tuned config.", nil)
}

// TunedDispatch is one row of the tuned-dispatch audit table.
type TunedDispatch struct {
	Task   TaskKey
	Config KernelConfig
	Hits   int64
}

// Snapshot returns every tuned task with its config and dispatch hit count,
// sorted by task signature for deterministic output.
func (t *TuningTable) Snapshot() []TunedDispatch {
	if t == nil {
		return nil
	}
	out := make([]TunedDispatch, 0, len(t.configs))
	for k, e := range t.configs {
		out = append(out, TunedDispatch{Task: k, Config: e.cfg, Hits: e.hits.Load()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Task.String() < out[j].Task.String() })
	return out
}

// activeTuning is the installed table; nil (the default) short-circuits
// every lookup to one atomic load, keeping untuned dispatch cost-free, the
// same pattern kernelObs uses.
var activeTuning atomic.Pointer[TuningTable]

// SetTuning installs (or with nil removes) the active tuning table,
// returning the previous one so measurement harnesses can restore it.
func SetTuning(t *TuningTable) *TuningTable {
	return activeTuning.Swap(t)
}

// Tuning returns the active table (nil when none is installed).
func Tuning() *TuningTable { return activeTuning.Load() }

// tunedConfig resolves the active table's config for a task, counting the
// hit or miss. Returns nil when no table is installed or the task has no
// record — callers fall back to their built-in heuristics.
func tunedConfig(key TaskKey) *KernelConfig {
	t := activeTuning.Load()
	if t == nil {
		return nil
	}
	e, ok := t.configs[key]
	if !ok {
		t.misses.Add(1)
		if t.obsMisses != nil {
			t.obsMisses.Inc()
		}
		return nil
	}
	t.hits.Add(1)
	e.hits.Add(1)
	if t.obsHits != nil {
		t.obsHits.Inc()
	}
	return &e.cfg
}

// taskOp normalizes fused kernel names to their anchor op so one tuning
// record serves both the TVM chain (qnn.conv2d) and the Neuron runtime's
// fused dispatch (qnn.conv2d_fused) of the same problem.
func taskOp(op string) string {
	switch op {
	case "qnn.conv2d_fused":
		return "qnn.conv2d"
	case "qnn.dense_fused":
		return "qnn.dense"
	}
	return op
}

// unitParams are a dense launch's convolution attributes: unit strides and
// dilation, no padding, one group.
var unitParams = conv2dParams{sh: 1, sw: 1, dh: 1, dw: 1, groups: 1}

// taskKey is the one builder of a task signature, called by every conv and
// dense kernel at dispatch (allocation-free) and by TaskKeyOf on checked
// types. A dense launch — rank-2 N×C data against OC×C weight, unitParams —
// is keyed as the 1×1 convolution it is: data N×1×1×C, weight OC×1×1×C.
func taskKey(op string, data, weight tensor.Shape, dt tensor.DType, p conv2dParams) TaskKey {
	k := TaskKey{
		Op: taskOp(op),
		N:  data[0], H: 1, W: 1, C: data[len(data)-1],
		OC: weight[0], KH: 1, KW: 1, ICG: weight[len(weight)-1],
		SH: p.sh, SW: p.sw, DH: p.dh, DW: p.dw, Groups: p.groups,
		PadT: p.pad[0], PadL: p.pad[1], PadB: p.pad[2], PadR: p.pad[3],
		DType: dt.String(),
	}
	if len(data) == 4 {
		k.H, k.W, k.KH, k.KW = data[1], data[2], weight[1], weight[2]
	}
	return k
}

// TaskKeyOf is the one mapping from a type-checked relay call to its tunable
// task: ok=false for ops outside the conv/dense families and for calls whose
// operand types are missing, non-tensor or of the wrong rank. The tune
// extractor and the plan builder both ask here, so a task is tunable exactly
// when the plan can see its record.
func TaskKeyOf(call *relay.Call) (TaskKey, bool) {
	if call.Op == nil || len(call.Args) < 2 {
		return TaskKey{}, false
	}
	data, ok := call.Args[0].CheckedType().(*relay.TensorType)
	if !ok {
		return TaskKey{}, false
	}
	weight, ok := call.Args[1].CheckedType().(*relay.TensorType)
	if !ok {
		return TaskKey{}, false
	}
	switch op := taskOp(call.Op.Name); op {
	case "nn.conv2d", "qnn.conv2d":
		if len(data.Shape) == 4 && len(weight.Shape) == 4 {
			return taskKey(op, data.Shape, weight.Shape, data.DType, convParams(call.Attrs)), true
		}
	case "nn.dense", "qnn.dense":
		if len(data.Shape) == 2 && len(weight.Shape) == 2 {
			return taskKey(op, data.Shape, weight.Shape, data.DType, unitParams), true
		}
	}
	return TaskKey{}, false
}
