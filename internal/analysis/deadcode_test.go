package analysis

import (
	"testing"

	"repro/internal/relay"
	"repro/internal/tensor"
)

func TestDeadCodeClean(t *testing.T) {
	a := relay.NewVar("a", relay.TType(tensor.Float32, 4))
	b := relay.NewVar("b", relay.TType(tensor.Float32, 4))
	sum := relay.NewCall(relay.GetOp("add"), []relay.Expr{a, b}, nil)
	m := relay.NewModule(relay.NewFunc([]*relay.Var{a, b}, sum))
	if res := DeadCode(m); len(res.Diags) != 0 {
		t.Fatalf("clean module flagged: %v", res.Diags)
	}
}

func TestDeadParam(t *testing.T) {
	a := relay.NewVar("a", relay.TType(tensor.Float32, 4))
	unused := relay.NewVar("unused", relay.TType(tensor.Float32, 4))
	body := relay.NewCall(relay.OpReLU, []relay.Expr{a}, nil)
	m := relay.NewModule(relay.NewFunc([]*relay.Var{a, unused}, body))
	res := DeadCode(m)
	if !res.Has("dead-param") {
		t.Fatalf("unused parameter not flagged: %v", res.Diags)
	}
	if !res.OK() {
		t.Errorf("dead-param must be warning severity: %v", res.Errors())
	}
}

func TestReferencedRegionNotDead(t *testing.T) {
	// The partitioner's shape: the region function is both a module entry
	// and the callee object inside main.
	p := relay.NewVar("p", relay.TType(tensor.Float32, 4))
	region := relay.NewFunc([]*relay.Var{p}, relay.NewCall(relay.OpReLU, []relay.Expr{p}, nil)).
		WithAttr(relay.FnAttrCompiler, "nir").
		WithAttr(relay.FnAttrGlobalSymbol, "nir_0")

	a := relay.NewVar("a", relay.TType(tensor.Float32, 4))
	m := relay.NewModule(relay.NewFunc([]*relay.Var{a}, relay.NewFnCall(region, []relay.Expr{a})))
	if err := m.Add("nir_0", region); err != nil {
		t.Fatal(err)
	}
	if res := DeadCode(m); len(res.Diags) != 0 {
		t.Fatalf("referenced region flagged: %v", res.Diags)
	}
}
