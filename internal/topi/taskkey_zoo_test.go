package topi_test

import (
	"testing"

	"repro/internal/models"
	"repro/internal/relay"
	"repro/internal/runtime"
	"repro/internal/topi"
)

// TestZooDispatchKeysAreTaskKeyOf: a tuning record is written under the key
// TaskKeyOf gives a checked call and found under the key the kernel builds
// at dispatch, and one builder makes both. For every lite-zoo model, built
// TVM-only and BYOC, a table holding TaskKeyOf of each convolution call is
// installed and one inference runs: every dispatch that consults the table —
// the TVM kernels and the Neuron runtime's fused launches alike — must find
// its record.
func TestZooDispatchKeysAreTaskKeyOf(t *testing.T) {
	prev := topi.SetTuning(nil)
	defer topi.SetTuning(prev)
	for _, name := range models.Names() {
		spec, err := models.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		mod, err := spec.Build(models.SizeLite)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, opts := range []runtime.BuildOptions{{OptLevel: 3}, {OptLevel: 3, UseNIR: true}} {
			lib, err := runtime.Build(mod, opts)
			if err != nil {
				t.Fatalf("%s (BYOC %v): %v", name, opts.UseNIR, err)
			}
			tbl := topi.NewTuningTable()
			lib.Module.Functions(func(_ string, f *relay.Function) {
				relay.PostOrderVisit(f, func(e relay.Expr) {
					if call, ok := e.(*relay.Call); ok {
						if key, ok := topi.TaskKeyOf(call); ok {
							tbl.Set(key, topi.KernelConfig{})
						}
					}
				})
			})
			gm := runtime.NewGraphModule(lib)
			gm.SetInput(gm.InputNames()[0], models.RandomInput(mod, 1))
			topi.SetTuning(tbl)
			err = gm.Run()
			topi.SetTuning(nil)
			if err != nil {
				t.Fatalf("%s (BYOC %v): %v", name, opts.UseNIR, err)
			}
			if hits, misses := tbl.Stats(); hits == 0 || misses != 0 {
				t.Errorf("%s (BYOC %v): %d conv dispatches found their TaskKeyOf record, %d did not",
					name, opts.UseNIR, hits, misses)
			}
		}
	}
}
