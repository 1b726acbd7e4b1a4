package analysis

import (
	"repro/internal/relay"
	"repro/internal/verify"
)

// Dead-code detection over relay modules. The pass pipeline (CSE, fusion,
// partitioning) should never leave unused values behind; when it does, the
// memory planner allocates for them and the executor schedules them, so the
// leak is performance, not correctness — every finding is a warning.
//
//	dead-param  a function parameter its body never reads
//
// A module function main never references is an error, not a leak:
// verify.Module's dead-binding. Plan-level dead nodes are the
// plan-dead-node check in PlanSafety, which sees the graph after lowering.
func DeadCode(m *relay.Module) *verify.Result {
	res := &verify.Result{}
	m.Functions(func(name string, fn *relay.Function) {
		if fn == nil {
			return
		}
		// Parameter liveness: a param is dead when no Var node of the body
		// is that object. Nested functions bind their own params, so scan
		// only this function's immediate body.
		used := map[*relay.Var]bool{}
		relay.PostOrderVisit(fn.Body, func(e relay.Expr) {
			if v, ok := e.(*relay.Var); ok {
				used[v] = true
			}
		})
		for _, p := range fn.Params {
			if !used[p] {
				res.Warnf("dead-param", "@"+name, "parameter %%%s is never read", p.Name)
			}
		}
	})
	return res
}
