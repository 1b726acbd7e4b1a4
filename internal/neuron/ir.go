// Package neuron simulates the MediaTek NeuroPilot stack the paper targets:
// a tensor-oriented IR (operand table + operation list, NNAPI-style), a
// compiler with an Execution Planner that assigns operations to backend
// devices (mobile CPU / APU), and a runtime that executes the compiled plan
// on the simulated SoC.
//
// The property that drives the paper's §3.3 QNN augmentation lives here:
// *every* quantized operand must carry its own scale/zero-point
// (Model.Check enforces it), whereas relay QNN keeps those parameters on
// operator attributes. The BYOC converter (internal/nir) bridges the two.
package neuron

import (
	"fmt"

	"repro/internal/relay"
	"repro/internal/tensor"
)

// OperandType describes a Neuron tensor: shape, element type and — for
// quantized element types, mandatorily — quantization parameters.
type OperandType struct {
	Shape tensor.Shape
	DType tensor.DType
	Quant *tensor.QuantParams
}

func (t OperandType) String() string {
	q := ""
	if t.Quant != nil {
		q = fmt.Sprintf(" q(%g,%d)", t.Quant.Scale, t.Quant.ZeroPoint)
	}
	return fmt.Sprintf("%s%s%s", t.DType, t.Shape, q)
}

// Operand is one entry of the model's operand table.
type Operand struct {
	Index int
	Name  string
	Type  OperandType
	// Const holds the tensor value for weight/bias operands baked into the
	// model; nil for runtime-fed operands.
	Const *tensor.Tensor
}

// IsConst reports whether the operand is a compile-time constant.
func (o *Operand) IsConst() bool { return o.Const != nil }

// Operation applies one OpCode to input operands producing output operands.
// Attrs uses the same key space as relay attributes (strides, padding, ...);
// in the real stack these are encoded operand-side, but sharing the schema
// keeps the simulated kernels honest without duplicating every legalization.
type Operation struct {
	Code    OpCode
	Inputs  []int
	Outputs []int
	Attrs   relay.Attrs
}

// Model is a complete Neuron IR module: operand table, operation list in
// topological order, and the designated model inputs/outputs.
type Model struct {
	Name       string
	Operands   []Operand
	Operations []Operation
	Inputs     []int
	Outputs    []int
}

// NewModel returns an empty model.
func NewModel(name string) *Model { return &Model{Name: name} }

// AddOperand appends an operand and returns its index.
func (m *Model) AddOperand(name string, ty OperandType, value *tensor.Tensor) int {
	idx := len(m.Operands)
	m.Operands = append(m.Operands, Operand{Index: idx, Name: name, Type: ty, Const: value})
	return idx
}

// AddOperation appends an operation; inputs must already exist.
func (m *Model) AddOperation(code OpCode, inputs, outputs []int, attrs relay.Attrs) {
	if attrs == nil {
		attrs = relay.Attrs{}
	}
	m.Operations = append(m.Operations, Operation{Code: code, Inputs: inputs, Outputs: outputs, Attrs: attrs})
}

// OpCounts returns a histogram of opcodes, used by tests and debug dumps.
func (m *Model) OpCounts() map[OpCode]int {
	h := map[OpCode]int{}
	for _, op := range m.Operations {
		h[op.Code]++
	}
	return h
}
