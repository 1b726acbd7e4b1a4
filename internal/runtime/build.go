// Package runtime is the execution layer of the mini-TVM stack: relay.Build
// turns an imported module into an executable library (optimizing, optionally
// partitioning for NeuroPilot, and invoking the external codegen), and
// GraphModule exposes the set_input / run / get_output interface the paper's
// Listings 2–6 use. Execution computes real numerics through the TOPI
// kernels and the Neuron runtime while charging simulated device time to a
// profile.
//
// # Output aliasing contract
//
// On the planned-executor path (the default), tensors returned by
// GraphModule.GetOutput and MustOutput are views into the module's
// preallocated arena: they are valid only until that module's next Run,
// which overwrites them in place. Callers that keep results across Runs, or
// that hand results to another goroutine while the module keeps serving
// (e.g. a module pool), must detach them first — either Clone the view or
// use GraphModule.OutputCopy, which returns a tensor sharing no storage
// with the arena (OutputCopyInto makes the same copy into a tensor the
// caller reuses). The reference interpreter (ExecutorInterp) happens to
// return freshly allocated tensors each Run, but callers must not rely on
// that: the contract is defined by the planned path.
//
// The profile LastProfile returns after an unprofiled planned Run is charged
// once per module and shared by every such Run: it is read-only.
//
// One GraphModule is single-threaded state (SetInput/Run/GetOutput is a
// stateful sequence); concurrency is achieved by pooling independent
// GraphModules over one shared Lib, whose lowered ExecPlan is immutable and
// cached once per library.
package runtime

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/neuron"
	"repro/internal/nir"
	"repro/internal/obs"
	"repro/internal/passes"
	"repro/internal/relay"
	"repro/internal/soc"
	"repro/internal/verify"
)

// BuildOptions configures relay.Build.
type BuildOptions struct {
	// OptLevel mirrors tvm.transform.PassContext(opt_level=N); level >= 1
	// enables operator fusion, >= 2 constant folding.
	OptLevel int
	// UseNIR partitions the graph for the NeuroPilot external codegen
	// (the paper's use_nir flag).
	UseNIR bool
	// NIRDevices are the NeuroPilot backend devices enabled for external
	// regions (the nir_targets of Listing 6). Defaults to CPU+APU.
	NIRDevices []soc.DeviceKind
	// SoC is the simulated platform; defaults to the Dimensity 800.
	SoC *soc.SoC
	// Partition controls region merging (ablation hook).
	Partition passes.PartitionOptions
	// DisablePasses names optimization passes to skip (ablation hook).
	DisablePasses []string
	// Verify enables verify-after-each-pass instrumentation: the IR
	// verifier audits the module after every optimization pass, attributing
	// a broken invariant to the pass that introduced it (npc -verify). The
	// final module and every compiled NeuroPilot artifact are verified
	// regardless of this flag.
	Verify bool
	// Tracer, when non-nil, receives compile-time wall-clock spans on a
	// "compile" track: one per optimization pass, one for partition_for_nir,
	// and one per external-region conversion and Neuron compile (npc -trace).
	Tracer *obs.Tracer
}

func (o BuildOptions) withDefaults() BuildOptions {
	if o.SoC == nil {
		o.SoC = soc.NewDimensity800()
	}
	if o.UseNIR && len(o.NIRDevices) == 0 {
		o.NIRDevices = []soc.DeviceKind{soc.KindCPU, soc.KindAPU}
	}
	if o.Partition == (passes.PartitionOptions{}) {
		o.Partition = passes.DefaultPartitionOptions()
	}
	return o
}

// Lib is a built model library: the optimized (and possibly partitioned)
// relay module plus the compiled external NeuroPilot artifacts. It is what
// export_library serializes.
type Lib struct {
	Module   *relay.Module
	External map[string]*neuron.CompiledModel
	SoC      *soc.SoC
	Opts     BuildOptions

	// The execution plan is built on first use and cached: the lowering and
	// memory planning cost is paid once per library, not per GraphModule or
	// per Run.
	planOnce sync.Once
	plan     *ExecPlan
	planErr  error
}

// Plan returns the library's execution plan, lowering main on first call.
// The error is sticky: a module the planner cannot lower (see BuildPlan)
// reports the same error on every call, and callers fall back to the
// interpreting executor.
func (lib *Lib) Plan() (*ExecPlan, error) {
	lib.planOnce.Do(func() { lib.plan, lib.planErr = BuildPlan(lib) })
	return lib.plan, lib.planErr
}

// Estimate charges one inference of the built library to a fresh profile
// without executing any numerics: the plan's charge, which an unprofiled
// planned Run returns — per-kernel roofline time for host (TVM) kernels,
// and the compiled Execution-Planner cost for each external NeuroPilot
// region. The Figure 4/6 sweeps use this path at full model scale. A
// library the planner cannot lower has no estimate (Plan's error).
func (lib *Lib) Estimate() (*soc.Profile, error) {
	plan, err := lib.Plan()
	if err != nil {
		return nil, err
	}
	prof := soc.NewProfile()
	plan.charge(prof)
	return prof, nil
}

// Build compiles a relay module into an executable library, mirroring the
// paper's flow: optimize → partition_for_nir → relay.build.
func Build(m *relay.Module, opts BuildOptions) (*Lib, error) {
	opts = opts.withDefaults()
	mod := m.Clone()
	ctx := passes.NewContext(opts.OptLevel)
	var track *obs.Track
	if opts.Tracer != nil {
		track = opts.Tracer.NewTrack("compile")
		ctx.Trace = track
	}
	for _, p := range opts.DisablePasses {
		ctx.Disabled[p] = true
	}
	if opts.Verify {
		ctx.VerifyAfterEachPass = func(m *relay.Module, pass string) error {
			return verify.ModuleErr(m, nir.VerifyOptions())
		}
	}

	mod, err := passes.Sequential(mod, ctx,
		passes.SimplifyInference(),
		passes.FoldConstant(),
		passes.EliminateCommonSubexpr(),
	)
	if err != nil {
		return nil, fmt.Errorf("runtime: optimization failed: %w", err)
	}

	if opts.UseNIR {
		partStart := time.Now()
		mod, err = nir.PartitionForNIR(mod, opts.Partition, opts.NIRDevices...)
		if err != nil {
			return nil, fmt.Errorf("runtime: partition_for_nir failed: %w", err)
		}
		if track != nil { // counting the regions sorts their names
			track.Emit("partition_for_nir", "pass", partStart, time.Since(partStart),
				obs.A("regions", len(mod.ExternalFuncs(nir.CompilerName))))
		}
	}

	mod, err = passes.Sequential(mod, ctx, passes.FuseOps())
	if err != nil {
		return nil, fmt.Errorf("runtime: fusion failed: %w", err)
	}

	// The built module is always verified, whatever the Verify flag says:
	// relay.Build must never hand an ill-formed module to the executor.
	if err := verify.ModuleErr(mod, nir.VerifyOptions()); err != nil {
		return nil, fmt.Errorf("runtime: built module failed IR verification: %w", err)
	}

	lib := &Lib{Module: mod, External: map[string]*neuron.CompiledModel{}, SoC: opts.SoC, Opts: opts}
	if opts.UseNIR {
		ext, err := nir.CodegenTraced(mod, opts.SoC, opts.NIRDevices, track)
		if err != nil {
			return nil, fmt.Errorf("runtime: external codegen failed: %w", err)
		}
		for name, cm := range ext {
			if err := verify.PlanErr(cm); err != nil {
				return nil, fmt.Errorf("runtime: compiled region %s failed verification: %w", name, err)
			}
		}
		lib.External = ext
	}
	return lib, nil
}

// BuildNeuroPilotOnly compiles the *whole* model through the NeuroPilot
// stack, bypassing TVM entirely — the "NeuroPilot-only" columns of the
// paper's experiments. It fails with *neuron.UnsupportedError (no statistics)
// when the model contains any op outside the Neuron op set or outside the
// enabled devices' coverage.
func BuildNeuroPilotOnly(m *relay.Module, sc *soc.SoC, devices []soc.DeviceKind) (*neuron.CompiledModel, error) {
	if sc == nil {
		sc = soc.NewDimensity800()
	}
	if len(devices) == 0 {
		devices = []soc.DeviceKind{soc.KindCPU, soc.KindAPU}
	}
	mod := m.Clone()
	ctx := passes.NewContext(3)
	mod, err := passes.Sequential(mod, ctx,
		passes.SimplifyInference(),
		passes.FoldConstant(),
	)
	if err != nil {
		return nil, err
	}
	main := mod.Main()
	// Every op must be NeuroPilot-convertible; otherwise the model cannot be
	// imported into the Neuron compiler at all.
	var unsupported string
	relay.PostOrderVisit(main.Body, func(e relay.Expr) {
		if unsupported != "" {
			return
		}
		if c, ok := e.(*relay.Call); ok && c.Op != nil && !nir.Supported(c) {
			unsupported = c.Op.Name
		}
	})
	if unsupported != "" {
		return nil, fmt.Errorf("neuropilot-only: relay op %q has no Neuron IR mapping: %w",
			unsupported, errNoStatistics)
	}
	model, err := nir.ConvertFunction("model", main)
	if err != nil {
		return nil, err
	}
	return neuron.Compile(model, sc, devices)
}

// errNoStatistics marks the "no statistics to show" condition of the paper's
// NeuroPilot-only columns.
var errNoStatistics = fmt.Errorf("model not runnable on NeuroPilot alone")

// IsNoStatistics reports whether an error means the configuration cannot run
// the model at all (the empty bars of Figures 4/6).
func IsNoStatistics(err error) bool {
	if err == nil {
		return false
	}
	var ue *neuron.UnsupportedError
	if errors.As(err, &ue) {
		return true
	}
	return errors.Is(err, errNoStatistics)
}
