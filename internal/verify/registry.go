package verify

import (
	"sort"

	"repro/internal/neuron"
	"repro/internal/soc"
)

// RegistrySnapshot is the cross-registry state the lint audits: the relay op
// registry, the NIR converter's op-handler dictionary, the TOPI kernel
// inventory, and the Neuron opcode catalogue with its per-device support
// sets. It is plain data so the verifier stays below internal/nir and
// internal/topi in the dependency order; nir.VerifySnapshot assembles the
// live one.
type RegistrySnapshot struct {
	// RelayOps is relay.OpNames(): every registered relay operator.
	RelayOps []string
	// NIRHandlers is the converter dictionary: each relay op with a Neuron
	// conversion handler, and the opcode its row names.
	NIRHandlers map[string]neuron.OpCode
	// TOPIKernels is topi.KernelNames(): ops with a reference kernel.
	TOPIKernels []string
	// Devices are the NeuroPilot backends to audit coverage for; empty
	// defaults to CPU+APU+GPU.
	Devices []soc.DeviceKind
}

// Registries cross-checks the four operator registries so that a new op
// cannot be half-registered: every relay op with an NIR handler must exist
// in the op registry and name a catalogued Neuron opcode, every TOPI kernel
// must implement a registered relay op (and vice versa), and every Neuron
// opcode must resolve to real reference kernels and be executable on at
// least one backend device.
func Registries(s RegistrySnapshot) *Result {
	res := &Result{}
	devices := s.Devices
	if len(devices) == 0 {
		devices = []soc.DeviceKind{soc.KindCPU, soc.KindAPU, soc.KindGPU}
	}
	relayOps := toSet(s.RelayOps)
	kernels := toSet(s.TOPIKernels)

	// NIR handler dictionary ↔ relay op registry ↔ Neuron opcode catalogue.
	handlers := make([]string, 0, len(s.NIRHandlers))
	for name := range s.NIRHandlers {
		handlers = append(handlers, name)
	}
	sort.Strings(handlers)
	for _, name := range handlers {
		if !relayOps[name] {
			res.Errorf("nir-orphan-handler", "nir:"+name,
				"converter has a handler for %q but the relay op registry does not define it", name)
		}
		if code := s.NIRHandlers[name]; !neuron.KnownOpCode(code) {
			res.Errorf("nir-unknown-opcode", "nir:"+name,
				"handled relay op %q maps to unknown Neuron opcode %d", name, int(code))
		}
	}

	// TOPI kernel inventory ↔ relay op registry.
	for _, name := range s.TOPIKernels {
		if !relayOps[name] {
			res.Errorf("topi-orphan-kernel", "topi:"+name,
				"kernel %q implements no registered relay op", name)
		}
	}
	for _, name := range s.RelayOps {
		if !kernels[name] {
			res.Errorf("relay-op-no-kernel", "relay:"+name,
				"relay op %q has no TOPI kernel — the graph executor cannot run it", name)
		}
	}

	// Neuron opcode catalogue: reference kernels and device coverage.
	for _, code := range neuron.OpCodes() {
		where := "neuron:" + code.String()
		for _, quantized := range []bool{false, true} {
			k := neuron.KernelFor(code, quantized)
			if k == "" {
				res.Errorf("neuron-no-kernel", where,
					"opcode has no reference kernel mapping (quantized=%v)", quantized)
			} else if !kernels[k] {
				res.Errorf("neuron-no-kernel", where,
					"opcode maps to kernel %q, which is not in the TOPI inventory (quantized=%v)", k, quantized)
			}
		}
		supported := false
		for _, d := range devices {
			if neuron.SupportedOn(code, d) {
				supported = true
				break
			}
		}
		if !supported {
			res.Errorf("neuron-no-device", where,
				"no enabled device's supported-op set contains the opcode (devices %v)", devices)
		}
	}
	return res
}

// RegistriesErr is Registries returning an error.
func RegistriesErr(s RegistrySnapshot) error { return Registries(s).Err() }

func toSet(names []string) map[string]bool {
	set := make(map[string]bool, len(names))
	for _, n := range names {
		set[n] = true
	}
	return set
}
