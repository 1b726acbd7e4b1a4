// Package analysis is the dataflow static-analysis framework of the stack:
// a reusable forward/backward fixpoint engine over directed graphs
// (dataflow.go) with four concrete analyses layered on top, all reporting
// through internal/verify's structured diagnostics so `npc -analyze` reads
// exactly like `-verify` and `-lint`.
//
// Where internal/verify checks *well-formedness* (every index in range,
// every type consistent), this package proves *dataflow* properties — the
// safety net the ROADMAP's aggressive-graph-optimization and autotuning
// items need before searched rewrites and placements are let loose:
//
//   - PlanSafety (plansafety.go): the one checker of runtime.ExecPlan,
//     through the Plan interface (plan.go): the plan's own arrays, read in
//     place, or the plain-data PlanView copy. It recomputes wavefront
//     levels and value liveness from the node list alone — trusting
//     nothing the memory planner recorded — and proves that the executor
//     runs every node in the wavefront so computed, that no two
//     simultaneously-live values share arena storage, that every dispatch
//     reads only defined, live slots, that every node result, an external
//     region's included, is arena-backed, and that the GraphModule.OutputCopy
//     aliasing contract holds (graph outputs on dedicated storage).
//
//   - QuantRanges (quantrange.go): forward value-range propagation through
//     QNN modules. Every expression gets a conservative real-domain
//     interval; qnn.quantize/requantize boundaries are then audited for
//     degenerate scales, out-of-domain zero points, ranges that saturate
//     the uint8/int8 domain, and int32 accumulators that can overflow.
//
//   - DeviceLegality (device.go): device-placement audit over a compiled
//     NeuroPilot region. The per-operation half is neuron's CheckPlacement
//     (a read of the opcode table's device sets), reported under the
//     region's name; the analysis adds the per-value half — it propagates
//     producer devices through the operand table and flags operations that
//     consume values their Execution Planner device cannot legally receive
//     (quantized tensors on the GPU delegate, direct APU<->GPU hand-offs
//     that real hardware must stage through the host).
//
//   - DeadCode (deadcode.go): never-read function parameters of a relay
//     module (dead-param). The other unused values have other owners: an
//     unreferenced module function is verify.Module's dead-binding, a plan
//     node no output depends on is PlanSafety's plan-dead-node.
//
// The package sits between internal/verify (which it reports through) and
// internal/runtime (whose plans it reads): it imports relay, neuron, soc,
// tensor and verify, never runtime, so the runtime can run PlanSafety on
// every plan it builds without an import cycle.
//
// The sibling package analysis/npvet is the Go-source half of the same
// idea: custom go/ast analyzers enforcing repo invariants (hot-path
// allocation freedom, obs span pairing, device-lock discipline) that stock
// go vet cannot express. `make check` runs both.
package analysis
