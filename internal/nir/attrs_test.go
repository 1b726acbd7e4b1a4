package nir_test

import (
	"reflect"
	"testing"

	"repro/internal/models"
	"repro/internal/neuron"
	"repro/internal/relay"
	"repro/internal/runtime"
)

// TestConvertCopiesAttrsOnWrite: the converter hands a Neuron operation its
// relay call's attribute map, and neuron.FuseOperations copies an anchor's
// map before it writes to it. On every lite zoo model built with UseNIR,
// the source module's ArtifactKey reads the same before and after the
// build, and no fused anchor's map is the map of a relay call of the source
// module or of the built library.
func TestConvertCopiesAttrsOnWrite(t *testing.T) {
	opts := runtime.BuildOptions{OptLevel: 3, UseNIR: true}
	fused := 0
	for _, name := range models.Names() {
		spec, err := models.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		mod, err := spec.Build(models.SizeLite)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		before, err := runtime.ArtifactKey(mod, opts, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lib, err := runtime.Build(mod, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if after, err := runtime.ArtifactKey(mod, opts, nil); err != nil || after != before {
			t.Errorf("%s: the build changed its source module: key %s, then %s (%v)", name, before, after, err)
		}

		callMaps := map[uintptr]bool{}
		for _, m := range []*relay.Module{mod, lib.Module} {
			m.Functions(func(_ string, f *relay.Function) {
				relay.PostOrderVisit(f, func(e relay.Expr) {
					if c, ok := e.(*relay.Call); ok && c.Attrs != nil {
						callMaps[reflect.ValueOf(c.Attrs).Pointer()] = true
					}
				})
			})
		}
		for sym, cm := range lib.External {
			for i, op := range cm.Model.Operations {
				if op.Attrs.Bool(neuron.FusedRequantAttr, false) == false && op.Attrs.Str(neuron.FusedActivationAttr, "") == "" {
					continue
				}
				fused++
				if callMaps[reflect.ValueOf(op.Attrs).Pointer()] {
					t.Errorf("%s: %s operation %d (%s) writes its fused attributes into a relay call's map", name, sym, i, op.Code)
				}
			}
		}
	}
	if fused == 0 {
		t.Fatal("no zoo model has a fused anchor")
	}
}
