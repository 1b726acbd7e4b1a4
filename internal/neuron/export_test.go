package neuron

// WorkOf exposes the planner's per-operation work summary to the external
// tests that compare it with the relay-side cost rule.
var WorkOf = workOf
