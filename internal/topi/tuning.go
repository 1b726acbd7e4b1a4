package topi

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/relay"
	"repro/internal/tensor"
)

// Profile-guided kernel dispatch: the internal/tune autotuner measures each
// convolution task (op, shape, dtype) under the strategy the built-in rule
// does not pick and persists the strategies that won to a tuning-record
// file; at load time the records become a TuningTable installed here, and
// every convolution launch consults it before picking its strategy. With
// no table installed (the default) the lookup is one atomic load and every
// launch keeps the built-in rule (im2colPays), so untuned deployments pay
// nothing.
//
// The strategy is the one knob: it switches between two kernels pinned
// bit-identical to each other (im2col against direct), and neither is
// faster on every shape.

// TaskKey identifies one tunable convolution task: the operator plus the
// problem shape and dtype. The struct is comparable and built on the kernel
// dispatch path without allocation.
type TaskKey struct {
	Op string
	// Data tensor shape (NHWC).
	N, H, W, C int
	// Weight tensor shape (OHWI; ICG is the per-group input-channel count).
	OC, KH, KW, ICG int
	// Convolution attributes.
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
	ConvAuto   = ""       // the built-in rule, im2colPays
	ConvIm2col = "im2col" // force the im2col + GEMM path
	ConvDirect = "direct" // force the direct kernel
)

// OutShape is the NHWC output shape of the task's convolution, or an error
// when a stride is not positive or the kernel is larger than the padded
// input.
func (k TaskKey) OutShape() (tensor.Shape, error) {
	oh, err := relay.ConvOutDim(k.H, k.KH, k.SH, k.PadT, k.PadB, k.DH)
	if err != nil {
		return nil, err
	}
	ow, err := relay.ConvOutDim(k.W, k.KW, k.SW, k.PadL, k.PadR, k.DW)
	if err != nil {
		return nil, err
	}
	return tensor.Shape{k.N, oh, ow, k.OC}, nil
}

// DefaultStrategy is the strategy a launch of the task runs without a
// record: ConvIm2col or ConvDirect, as im2colPays decides. A task with no
// output shape has no launch, and gets ConvAuto.
func (k TaskKey) DefaultStrategy() string {
	out, err := k.OutShape()
	if err != nil {
		return ConvAuto
	}
	if im2colPays(out, tensor.Shape{k.OC, k.KH, k.KW, k.ICG}, k.Groups) {
		return ConvIm2col
	}
	return ConvDirect
}

// KernelConfig is what one task's record resolves to. The zero value means
// "use the built-in rule" and is indistinguishable from an absent record.
type KernelConfig struct {
	// ConvStrategy selects the convolution algorithm: ConvAuto, ConvIm2col
	// or ConvDirect.
	ConvStrategy string
}

// IsDefault reports whether the config carries no override.
func (c KernelConfig) IsDefault() bool { return c == KernelConfig{} }

// String renders the config compactly for reports and record files.
func (c KernelConfig) String() string {
	if c.IsDefault() {
		return "default"
	}
	return "conv=" + c.ConvStrategy
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

// taskOp normalizes the fused kernel name to its anchor op so one tuning
// record serves both the TVM chain (qnn.conv2d) and the Neuron runtime's
// fused dispatch (qnn.conv2d_fused) of the same problem.
func taskOp(op string) string {
	if op == "qnn.conv2d_fused" {
		return "qnn.conv2d"
	}
	return op
}

// taskKey is the one builder of a task signature, called by every
// convolution launch at dispatch (allocation-free) and by TaskKeyOf on
// checked types: NHWC data, OHWI weight.
func taskKey(op string, data, weight tensor.Shape, dt tensor.DType, p conv2dParams) TaskKey {
	return TaskKey{
		Op: taskOp(op),
		N:  data[0], H: data[1], W: data[2], C: data[3],
		OC: weight[0], KH: weight[1], KW: weight[2], ICG: weight[3],
		SH: p.sh, SW: p.sw, DH: p.dh, DW: p.dw, Groups: p.groups,
		PadT: p.pad[0], PadL: p.pad[1], PadB: p.pad[2], PadR: p.pad[3],
		DType: dt.String(),
	}
}

// TaskKeyOf is the one mapping from a type-checked relay call to its tunable
// task: ok=false for ops other than the convolutions and for calls whose
// operand types are missing, non-tensor or not rank 4. The tune extractor
// and the plan builder both ask here, so a task is tunable exactly when the
// plan can see its record.
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
	}
	return TaskKey{}, false
}
