package tune

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"repro/internal/relay"
	"repro/internal/tensor"
	"repro/internal/topi"
)

// Measurement harness: run one task's kernel in-process against real
// tensors synthesized from the task signature, with a candidate config
// temporarily installed in the dispatch table. Wall time is min-of-N over
// iteration loops sized once per task (from the default config), so every
// candidate amortizes timer overhead identically.

// Measurer holds measurement policy shared across tasks.
type Measurer struct {
	// Warmup runs before timing (default 1); Reps timed repetitions, of
	// which the minimum wins (default 3).
	Warmup, Reps int
	// MinSampleNS is the target duration of one timed repetition; the
	// per-task iteration count is sized to reach it (default 200µs).
	MinSampleNS int64
	// Verify re-checks every candidate's output against the default
	// config's, enforcing the bitwise-identity invariant at tuning time.
	Verify bool
}

func (m *Measurer) warmup() int {
	if m.Warmup <= 0 {
		return 1
	}
	return m.Warmup
}

func (m *Measurer) reps() int {
	if m.Reps <= 0 {
		return 3
	}
	return m.Reps
}

func (m *Measurer) minSample() int64 {
	if m.MinSampleNS <= 0 {
		return 200_000
	}
	return m.MinSampleNS
}

// kernelBench is one task's prepared measurement state.
type kernelBench struct {
	m     *Measurer
	task  topi.TaskKey
	op    string
	args  []*tensor.Tensor
	attrs relay.Attrs
	out   *relay.TensorType
	dst   *tensor.Tensor
	iters int
	ref   *tensor.Tensor // default-config output (Verify)
}

// NewKernelBench synthesizes tensors and attributes for a task and
// calibrates the iteration count under the default config.
func (m *Measurer) NewKernelBench(task topi.TaskKey) (*kernelBench, error) {
	b := &kernelBench{m: m, task: task}
	if err := b.synthesize(); err != nil {
		return nil, err
	}
	// Calibrate: one untimed run (which also packs the weight panels),
	// then size the iteration loop so a repetition spans minSample.
	if err := b.runOnce(); err != nil {
		return nil, err
	}
	start := time.Now()
	if err := b.runOnce(); err != nil {
		return nil, err
	}
	oneNS := time.Since(start).Nanoseconds()
	if oneNS < 1 {
		oneNS = 1
	}
	b.iters = int(m.minSample() / oneNS)
	if b.iters < 1 {
		b.iters = 1
	}
	if b.iters > 10_000 {
		b.iters = 10_000
	}
	if m.Verify {
		b.ref = b.dst.Clone()
	}
	return b, nil
}

// synthesize builds deterministic input tensors and attrs from the task
// signature. Quantized tasks get representative nonzero zero points so the
// (raw − zp) paths do real work.
func (b *kernelBench) synthesize() error {
	task := b.task
	dt, err := tensor.ParseDType(task.DType)
	if err != nil {
		return fmt.Errorf("tune: task %s: %w", task, err)
	}
	rng := tensor.NewRNG(taskSeed(task, 0x6d65617375726572))
	b.op = task.Op
	b.attrs = relay.Attrs{}

	var zpIn, zpK int
	switch dt {
	case tensor.UInt8:
		zpIn, zpK = 128, 119
	case tensor.Int8:
		zpIn, zpK = -1, 3
	}

	dense := task.KH == 1 && task.KW == 1 && task.H == 1 && task.W == 1 &&
		(task.Op == "nn.dense" || task.Op == "qnn.dense")
	if dense {
		data := tensor.New(dt, tensor.Shape{task.N, task.C})
		weight := tensor.New(dt, tensor.Shape{task.OC, task.ICG})
		fill(data, rng)
		fill(weight, rng)
		b.args = []*tensor.Tensor{data, weight}
		outDT := tensor.Float32
		if dt.IsQuantized() {
			outDT = tensor.Int32
			b.attrs["input_zero_point"] = zpIn
			b.attrs["kernel_zero_point"] = zpK
		}
		b.out = &relay.TensorType{Shape: tensor.Shape{task.N, task.OC}, DType: outDT}
	} else {
		data := tensor.New(dt, tensor.Shape{task.N, task.H, task.W, task.C})
		weight := tensor.New(dt, tensor.Shape{task.OC, task.KH, task.KW, task.ICG})
		fill(data, rng)
		fill(weight, rng)
		b.args = []*tensor.Tensor{data, weight}
		b.attrs["strides"] = []int{task.SH, task.SW}
		b.attrs["dilation"] = []int{task.DH, task.DW}
		b.attrs["padding"] = []int{task.PadT, task.PadL, task.PadB, task.PadR}
		b.attrs["groups"] = task.Groups
		oh := convOut(task.H, task.KH, task.SH, task.DH, task.PadT, task.PadB)
		ow := convOut(task.W, task.KW, task.SW, task.DW, task.PadL, task.PadR)
		if oh <= 0 || ow <= 0 {
			return fmt.Errorf("tune: task %s has empty output %dx%d", task, oh, ow)
		}
		outDT := tensor.Float32
		if dt.IsQuantized() {
			outDT = tensor.Int32
			b.attrs["input_zero_point"] = zpIn
			b.attrs["kernel_zero_point"] = zpK
		}
		b.out = &relay.TensorType{Shape: tensor.Shape{task.N, oh, ow, task.OC}, DType: outDT}
	}
	b.dst = tensor.New(b.out.DType, b.out.Shape.Clone())
	return nil
}

// convOut is the standard convolution output-extent arithmetic.
func convOut(in, k, stride, dilation, padA, padB int) int {
	eff := (k-1)*dilation + 1
	return (in+padA+padB-eff)/stride + 1
}

// fill writes deterministic pseudo-random values appropriate to the dtype.
func fill(t *tensor.Tensor, rng *tensor.RNG) {
	switch t.DType {
	case tensor.Float32:
		t.FillUniform(rng, -1, 1)
	case tensor.UInt8:
		for i := range t.U8() {
			t.U8()[i] = uint8(rng.Intn(256))
		}
	case tensor.Int8:
		for i := range t.I8() {
			t.I8()[i] = int8(rng.Intn(256) - 128)
		}
	case tensor.Int32:
		for i := range t.I32() {
			t.I32()[i] = int32(rng.Intn(256) - 128)
		}
	default:
		t.FillUniform(rng, -1, 1)
	}
}

func (b *kernelBench) runOnce() error {
	return topi.RunInto(b.op, b.args, b.attrs, b.out, b.dst)
}

// Measure times the task under one candidate config: the config is
// installed as a single-entry dispatch table for the duration, the kernel
// warms up, then the minimum of Reps timed iteration loops is returned (in
// ns per kernel launch).
func (b *kernelBench) Measure(cfg topi.KernelConfig) (int64, error) {
	tbl := topi.NewTuningTable()
	tbl.Set(b.task, cfg)
	prev := topi.SetTuning(tbl)
	defer topi.SetTuning(prev)

	for i := 0; i < b.m.warmup(); i++ {
		if err := b.runOnce(); err != nil {
			return 0, err
		}
	}
	if b.ref != nil {
		if err := b.verifyAgainstRef(cfg); err != nil {
			return 0, err
		}
	}
	best := int64(-1)
	for r := 0; r < b.m.reps(); r++ {
		start := time.Now()
		for i := 0; i < b.iters; i++ {
			if err := b.runOnce(); err != nil {
				return 0, err
			}
		}
		ns := time.Since(start).Nanoseconds() / int64(b.iters)
		if best < 0 || ns < best {
			best = ns
		}
	}
	return best, nil
}

// verifyAgainstRef enforces the bitwise-identity invariant: the candidate's
// output must equal the default config's byte for byte.
func (b *kernelBench) verifyAgainstRef(cfg topi.KernelConfig) error {
	if sameTensorData(b.dst, b.ref) {
		return nil
	}
	return fmt.Errorf("tune: config %s changes the output of %s — bitwise-identity invariant violated", cfg, b.task)
}

// sameTensorData compares two same-typed tensors bit for bit (float32
// elements are compared as bit patterns, so -0 != +0 and NaNs compare by
// payload — the invariant really is "identical bytes").
func sameTensorData(a, c *tensor.Tensor) bool {
	if a.DType != c.DType || !a.Shape.Equal(c.Shape) {
		return false
	}
	switch a.DType {
	case tensor.Float32:
		av, cv := a.F32(), c.F32()
		for i := range av {
			if math.Float32bits(av[i]) != math.Float32bits(cv[i]) {
				return false
			}
		}
		return true
	case tensor.Int32:
		av, cv := a.I32(), c.I32()
		for i := range av {
			if av[i] != cv[i] {
				return false
			}
		}
		return true
	case tensor.Int8:
		return bytes.Equal(i8Bytes(a.I8()), i8Bytes(c.I8()))
	case tensor.UInt8:
		return bytes.Equal(a.U8(), c.U8())
	}
	return false
}

// i8Bytes views an int8 slice as bytes for comparison.
func i8Bytes(s []int8) []byte {
	b := make([]byte, len(s))
	for i, v := range s {
		b[i] = byte(v)
	}
	return b
}
