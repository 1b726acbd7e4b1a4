package neuron_test

import (
	"testing"

	"repro/internal/models"
	"repro/internal/neuron"
	"repro/internal/nir"
	"repro/internal/passes"
	"repro/internal/relay"
	"repro/internal/soc"
)

// TestZooOperationMACsMatchRelay: a layer costs the same multiply-accumulates
// whichever engine asks. Every call inside every NeuroPilot region of the
// lite zoo is converted (unfused: the converter emits one operation per call,
// in visit order) and the operation's MAC count must equal soc.WorkOf of the
// call it came from — both sides read soc.MACs, the Neuron side under the
// opcode's reference kernel name. Bytes and Quantized are not compared: they
// are taken from operands vs. checked types and legitimately differ.
func TestZooOperationMACsMatchRelay(t *testing.T) {
	for _, name := range models.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			spec, _ := models.Get(name)
			m, err := spec.Build(models.SizeLite)
			if err != nil {
				t.Fatal(err)
			}
			part, err := nir.PartitionForNIR(m, passes.DefaultPartitionOptions())
			if err != nil {
				t.Fatal(err)
			}
			compared := 0
			for _, sym := range part.ExternalFuncs(nir.CompilerName) {
				fn, _ := part.Get(sym)
				model, err := nir.ConvertFunction(sym, fn)
				if err != nil {
					t.Fatalf("%s: %v", sym, err)
				}
				var calls []*relay.Call
				relay.PostOrderVisit(fn.Body, func(e relay.Expr) {
					if c, ok := e.(*relay.Call); ok && c.Op != nil {
						calls = append(calls, c)
					}
				})
				if len(calls) != len(model.Operations) {
					t.Fatalf("%s: %d calls became %d operations", sym, len(calls), len(model.Operations))
				}
				for i, op := range model.Operations {
					got, want := neuron.WorkOf(model, op).MACs, soc.WorkOf(calls[i]).MACs
					if got != want {
						t.Errorf("%s op %d: %s costs %d MACs, its call %s costs %d",
							sym, i, op.Code, got, calls[i].Op.Name, want)
					}
					compared++
				}
			}
			if compared == 0 {
				t.Error("no region call compared")
			}
		})
	}
}
