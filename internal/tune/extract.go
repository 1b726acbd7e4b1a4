package tune

import (
	"sort"

	"repro/internal/relay"
	"repro/internal/topi"
)

// Task extraction: walk a compiled module and collect the (op, shape, dtype)
// signature of every tunable kernel launch. Fused primitives normalize to
// their anchor op inside topi's one key builder, and a fused launch runs the
// anchor's kernel and strategy rule, so one tuned record serves both the
// unfused TVM chain and the Neuron runtime's fused dispatch.

// Tasks extracts the deduplicated, deterministically ordered tunable task
// set of a module. The module must be type-checked (any module that came
// out of runtime.Build is); calls whose types are missing or non-tensor are
// skipped rather than guessed at.
func Tasks(m *relay.Module) []topi.TaskKey {
	seen := map[topi.TaskKey]bool{}
	var out []topi.TaskKey
	m.Functions(func(name string, f *relay.Function) {
		relay.PostOrderVisit(f, func(e relay.Expr) {
			call, ok := e.(*relay.Call)
			if !ok {
				return
			}
			key, ok := topi.TaskKeyOf(call)
			if !ok || seen[key] {
				return
			}
			seen[key] = true
			out = append(out, key)
		})
	})
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}
