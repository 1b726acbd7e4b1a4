package nir

import (
	"repro/internal/neuron"
	"repro/internal/relay"
	"repro/internal/soc"
	"repro/internal/topi"
	"repro/internal/verify"
)

// VerifySnapshot assembles the live cross-registry state — relay op
// registry, NIR handler dictionary, TOPI kernel inventory, Neuron opcode
// catalogue — for verify.Registries. npc -lint and the registry-consistency
// tests run the lint over this snapshot so a new operator cannot land
// half-registered.
func VerifySnapshot(devices ...soc.DeviceKind) verify.RegistrySnapshot {
	handlers := make(map[string]neuron.OpCode, len(opHandlerDict))
	for name, h := range opHandlerDict {
		handlers[name] = h.code
	}
	return verify.RegistrySnapshot{
		RelayOps:    relay.OpNames(),
		NIRHandlers: handlers,
		TOPIKernels: topi.KernelNames(),
		Devices:     devices,
	}
}

// VerifyOptions returns the relay-verifier options wired to the NeuroPilot
// backend: every op inside a Compiler="nir" region must have a conversion
// handler.
func VerifyOptions() verify.Options {
	return verify.Options{
		ExternalOps: map[string]func(*relay.Call) bool{CompilerName: Supported},
	}
}
