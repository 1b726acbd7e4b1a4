package runtime_test

import (
	"errors"
	"testing"

	"repro/internal/models"
	"repro/internal/neuron"
	"repro/internal/runtime"
	"repro/internal/soc"
	"repro/internal/verify"
)

// TestZooVerifiedBuild drives every zoo model through the full
// relay.Build + partition_for_nir pipeline with verify-after-each-pass
// instrumentation enabled: no optimization pass, the partitioner, nor the
// external codegen may emit IR that violates a verifier invariant.
func TestZooVerifiedBuild(t *testing.T) {
	for _, name := range models.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			spec, err := models.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			m, err := spec.Build(models.SizeLite)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			lib, err := runtime.Build(m, runtime.BuildOptions{
				OptLevel: 3,
				UseNIR:   true,
				Verify:   true,
			})
			if err != nil {
				t.Fatalf("instrumented relay.Build: %v", err)
			}
			for name, cm := range lib.External {
				if err := cm.CheckPlan(); err != nil {
					t.Errorf("region %s: %v", name, err)
				}
			}
		})
	}
}

// TestZooCheckPlanAgreesWithVerifyPlan pins the adapters around the one
// Neuron checker: on every region of every zoo model, as compiled and under
// one model mutation and one placement mutation, CompiledModel.CheckPlan
// and verify.Plan pass or fail together and CheckPlan's error is
// verify.Plan's first diagnostic.
func TestZooCheckPlanAgreesWithVerifyPlan(t *testing.T) {
	agree := func(t *testing.T, what string, cm *neuron.CompiledModel) error {
		t.Helper()
		res, err := verify.Plan(cm), cm.CheckPlan()
		if res.OK() != (err == nil) {
			t.Fatalf("%s: verify.Plan OK=%v, CheckPlan: %v", what, res.OK(), err)
		}
		var f neuron.Finding
		if errors.As(err, &f) {
			if d := res.Diags[0]; d.Check != f.Check || d.Where != f.Where || d.Msg != f.Msg {
				t.Errorf("%s: first finding differs: verify.Plan %v, CheckPlan %v", what, d, f)
			}
		}
		return err
	}
	for _, name := range models.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			spec, err := models.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			m, err := spec.Build(models.SizeLite)
			if err != nil {
				t.Fatal(err)
			}
			lib, err := runtime.Build(m, runtime.BuildOptions{OptLevel: 3, UseNIR: true})
			if err != nil {
				t.Fatal(err)
			}
			for region, cm := range lib.External {
				if err := agree(t, region, cm); err != nil {
					t.Errorf("%s: compiled region refused: %v", region, err)
				}
				op := &cm.Model.Operations[0]
				inputs := op.Inputs
				op.Inputs = nil
				if agree(t, region+" without inputs", cm) == nil {
					t.Errorf("%s: operation without inputs accepted", region)
				}
				op.Inputs = inputs
				cm.Plan[0] = soc.DeviceKind(7)
				if agree(t, region+" misplaced", cm) == nil {
					t.Errorf("%s: operation on an unknown device accepted", region)
				}
			}
		})
	}
}
