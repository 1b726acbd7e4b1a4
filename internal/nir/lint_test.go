package nir

import (
	"testing"

	"repro/internal/neuron"
	"repro/internal/relay"
	"repro/internal/soc"
	"repro/internal/topi"
	"repro/internal/verify"
)

// TestRegistriesConsistent pins the four operator registries against each
// other: the relay op registry, the NIR conversion-handler dictionary, the
// TOPI kernel inventory, and the Neuron opcode catalogue must describe the
// same operator universe. A new operator that lands in only some of them
// fails here (and in `npc -lint`) rather than at model-compile time.
func TestRegistriesConsistent(t *testing.T) {
	res := verify.Registries(VerifySnapshot())
	for _, d := range res.Diags {
		t.Errorf("registry lint: %s", d)
	}
}

// TestRegistryPins spot-checks the cross-registry contract on core ops so a
// refactor that silently empties one registry cannot pass the lint vacuously.
func TestRegistryPins(t *testing.T) {
	relayOps := map[string]bool{}
	for _, n := range relay.OpNames() {
		relayOps[n] = true
	}
	handlers := map[string]bool{}
	for _, n := range SupportedOpNames() {
		handlers[n] = true
	}
	kernels := map[string]bool{}
	for _, n := range topi.KernelNames() {
		kernels[n] = true
	}
	for _, core := range []string{"nn.conv2d", "nn.dense", "nn.relu", "add", "qnn.conv2d"} {
		if !relayOps[core] {
			t.Errorf("%s missing from the relay op registry", core)
		}
		if !handlers[core] {
			t.Errorf("%s missing from the NIR handler dictionary", core)
		}
		if !kernels[core] {
			t.Errorf("%s missing from the TOPI kernel inventory", core)
		}
		if _, ok := OpcodeOf(core); !ok {
			t.Errorf("%s maps to no Neuron opcode", core)
		}
	}
	// Every handler row must name a registered relay op and a catalogued
	// Neuron opcode, and OpcodeOf must read that field. A row that forgets
	// its code would silently read as CONV_2D (the zero opcode), so the rows
	// lowering to CONV_2D are pinned to the two convolutions.
	for n, h := range opHandlerDict {
		if !relayOps[n] {
			t.Errorf("NIR handles %q but relay does not register it", n)
		}
		if !neuron.KnownOpCode(h.code) {
			t.Errorf("NIR handles %q with opcode %d, outside the catalogue", n, int(h.code))
		}
		if code, ok := OpcodeOf(n); !ok || code != h.code {
			t.Errorf("OpcodeOf(%q) = %s, %v; the row says %s", n, code, ok, h.code)
		}
		if isConv := n == "nn.conv2d" || n == "qnn.conv2d"; (h.code == neuron.Conv2D) != isConv {
			t.Errorf("NIR handles %q by lowering to %s", n, h.code)
		}
	}
	// Every Neuron opcode must resolve to kernels and at least one device.
	for _, code := range neuron.OpCodes() {
		anyDev := false
		for _, d := range []soc.DeviceKind{soc.KindCPU, soc.KindGPU, soc.KindAPU} {
			if neuron.SupportedOn(code, d) {
				anyDev = true
			}
		}
		if !anyDev {
			t.Errorf("Neuron opcode %s runs on no device", code)
		}
	}
}
