package verify

import "repro/internal/neuron"

// The Neuron IR invariants are declared and checked once, in
// internal/neuron beside the opcode catalogue (neuron.Model.Check,
// neuron.CompiledModel.CheckPlacement); these entry points report its
// findings as diagnostics, all of error severity.

func fromFindings(fs ...[]neuron.Finding) *Result {
	res := &Result{}
	for _, list := range fs {
		for _, f := range list {
			res.Diags = append(res.Diags, Diagnostic{Sev: SevError, Check: f.Check, Where: f.Where, Msg: f.Msg})
		}
	}
	return res
}

// NeuronModel verifies the tensor-oriented invariants of a Neuron IR model;
// neuron.Model.Check lists them.
func NeuronModel(m *neuron.Model) *Result { return fromFindings(m.Check()) }

// NeuronModelErr is NeuronModel returning an error.
func NeuronModelErr(m *neuron.Model) error { return NeuronModel(m).Err() }

// Plan verifies a compiled model: the model's own invariants, then its
// execution plan (neuron.CompiledModel.CheckPlacement).
func Plan(cm *neuron.CompiledModel) *Result {
	return fromFindings(cm.Model.Check(), cm.CheckPlacement())
}

// PlanErr is Plan returning an error.
func PlanErr(cm *neuron.CompiledModel) error { return Plan(cm).Err() }
