package nir

import (
	"fmt"
	"time"

	"repro/internal/neuron"
	"repro/internal/obs"
	"repro/internal/relay"
	"repro/internal/soc"
)

// Codegen converts every Compiler="nir" region of the module into a Neuron
// model and compiles it with the Execution Planner for the enabled devices.
// The result maps global symbol → compiled NeuroPilot artifact, which the
// graph executor dispatches to at runtime.
func Codegen(m *relay.Module, sc *soc.SoC, devices []soc.DeviceKind) (map[string]*neuron.CompiledModel, error) {
	return CodegenTraced(m, sc, devices, nil)
}

// CodegenTraced is Codegen with compile-time observability: when tk is
// non-nil, every region conversion and Execution-Planner compile emits one
// wall-clock span (Neuron op/operand counts and target devices in the args).
// The span arguments are built only then: an untraced build formats and boxes
// nothing.
func CodegenTraced(m *relay.Module, sc *soc.SoC, devices []soc.DeviceKind, tk *obs.Track) (map[string]*neuron.CompiledModel, error) {
	out := map[string]*neuron.CompiledModel{}
	for _, name := range m.ExternalFuncs(CompilerName) {
		fn, _ := m.Get(name)
		convStart := time.Now()
		model, err := ConvertFunction(name, fn)
		if err != nil {
			return nil, fmt.Errorf("nir codegen %s: %w", name, err)
		}
		if tk != nil {
			tk.Emit("ConvertFunction:"+name, "codegen", convStart, time.Since(convStart),
				obs.A("operations", len(model.Operations)),
				obs.A("operands", len(model.Operands)))
		}
		compStart := time.Now()
		cm, err := neuron.Compile(model, sc, devices)
		if err != nil {
			return nil, fmt.Errorf("nir codegen %s: %w", name, err)
		}
		if tk != nil {
			tk.Emit("neuron.Compile:"+name, "codegen", compStart, time.Since(compStart),
				obs.A("operations", len(model.Operations)),
				obs.A("devices", fmt.Sprint(devices)))
		}
		out[name] = cm
	}
	return out, nil
}
