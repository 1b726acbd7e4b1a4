package nir

import (
	"fmt"

	"repro/internal/neuron"
	"repro/internal/relay"
	"repro/internal/verify"
)

// This file is the Go rendition of the paper's Listing 1: an ExprVisitor
// walks the relay AST of a partitioned region in post-order DFS, a NodeEntry
// records the Neuron operand indices produced for every relay node, and an
// op-handler dictionary maps each relay operator onto its Neuron IR
// counterpart.

// NodeEntry stores the inputs and outputs (Neuron operand indices) of one
// relay node during conversion.
type NodeEntry struct {
	Inputs  []int
	Outputs []int
}

// createOpFn builds the Neuron operation(s) of opcode code for one relay call
// whose argument operands are already materialized.
type createOpFn func(cv *Converter, code neuron.OpCode, call *relay.Call, entry *NodeEntry) error

// checkFn imposes extra structural constraints for Supported().
type checkFn func(*relay.Call) bool

// opHandler is one row of the op-handler dictionary.
type opHandler struct {
	// code is the Neuron opcode the relay op lowers to (its standard form,
	// where variant distinguishes several).
	code neuron.OpCode
	// variant, when set, picks the opcode from the call itself; ok=false
	// means this form of the op has no Neuron equivalent.
	variant func(*relay.Call) (neuron.OpCode, bool)
	// create, when set, builds the operation; nil means one operation with
	// the call's attributes copied verbatim.
	create createOpFn
	check  checkFn
}

// opcode returns the Neuron opcode this particular call lowers to.
func (h opHandler) opcode(call *relay.Call) (neuron.OpCode, bool) {
	if h.variant != nil {
		return h.variant(call)
	}
	return h.code, true
}

// Converter lowers one relay function (a Compiler="nir" region) to a Neuron
// model.
type Converter struct {
	model *neuron.Model
	// nodeEntryDict is the node_entry_dict of Listing 1.
	nodeEntryDict map[relay.Expr]*NodeEntry
	nextName      int
}

// ConvertFunction converts a type-checked relay function into Neuron IR.
// Every tensor edge becomes an operand carrying shape, dtype and — for
// quantized dtypes — the quantization parameters propagated through the
// relay type system (§3.3).
func ConvertFunction(name string, fn *relay.Function) (*neuron.Model, error) {
	if fn.CheckedType() == nil {
		if _, err := relay.InferTypes(fn); err != nil {
			return nil, fmt.Errorf("nir: region %q is not type-checked: %w", name, err)
		}
	}
	cv := &Converter{
		model:         neuron.NewModel(name),
		nodeEntryDict: map[relay.Expr]*NodeEntry{},
	}
	// Model inputs: one runtime-fed operand per parameter, in order
	// (the paper's "convert the parameters into tensor-oriented
	// expressions" step).
	for _, p := range fn.Params {
		entry, err := cv.visitVar(p)
		if err != nil {
			return nil, err
		}
		cv.model.Inputs = append(cv.model.Inputs, entry.Outputs[0])
	}
	var cerr error
	relay.PostOrderVisit(fn.Body, func(e relay.Expr) {
		if cerr != nil {
			return
		}
		if _, done := cv.nodeEntryDict[e]; done {
			return
		}
		switch n := e.(type) {
		case *relay.Var:
			_, cerr = cv.visitVar(n)
		case *relay.Constant:
			cerr = cv.visitConstant(n)
		case *relay.Call:
			cerr = cv.visitCall(n)
		case *relay.Tuple:
			cerr = cv.visitTuple(n)
		case *relay.TupleGetItem:
			cerr = cv.visitTupleGetItem(n)
		case *relay.Function:
			cerr = fmt.Errorf("nir: nested function inside region %q (fuse before partitioning is unsupported)", name)
		}
	})
	if cerr != nil {
		return nil, cerr
	}
	rootEntry := cv.nodeEntryDict[fn.Body]
	if rootEntry == nil {
		return nil, fmt.Errorf("nir: region %q produced no output entry", name)
	}
	cv.model.Outputs = append(cv.model.Outputs, rootEntry.Outputs...)
	if err := verify.NeuronModelErr(cv.model); err != nil {
		return nil, fmt.Errorf("nir: converted model failed IR verification: %w", err)
	}
	return cv.model, nil
}

// operandTypeOf maps a checked relay tensor type to a Neuron operand type,
// enforcing the tensor-oriented quantization invariant.
func operandTypeOf(t *relay.TensorType, ctx string) (neuron.OperandType, error) {
	ot := neuron.OperandType{Shape: t.Shape.Clone(), DType: t.DType}
	if t.Quant != nil {
		q := *t.Quant
		ot.Quant = &q
	}
	if t.DType.IsQuantized() && ot.Quant == nil {
		return ot, fmt.Errorf("nir: %s is %s but carries no quantization parameters; "+
			"relay QNN keeps them on operators — run the QNN propagation (type inference) first", ctx, t.DType)
	}
	return ot, nil
}

func (cv *Converter) freshName(prefix string) string {
	cv.nextName++
	return fmt.Sprintf("%s%d", prefix, cv.nextName-1)
}

// visitVar implements Listing 1's visit_var: the variable becomes a Neuron
// input operand and its NodeEntry lists that operand as both input and
// output.
func (cv *Converter) visitVar(v *relay.Var) (*NodeEntry, error) {
	if e, ok := cv.nodeEntryDict[v]; ok {
		return e, nil
	}
	tt, ok := v.CheckedType().(*relay.TensorType)
	if !ok {
		return nil, fmt.Errorf("nir: parameter %q has non-tensor type %s", v.Name, v.CheckedType())
	}
	ot, err := operandTypeOf(tt, "parameter "+v.Name)
	if err != nil {
		return nil, err
	}
	idx := cv.model.AddOperand(v.Name, ot, nil)
	entry := &NodeEntry{Inputs: []int{idx}, Outputs: []int{idx}}
	cv.nodeEntryDict[v] = entry
	return entry, nil
}

// visitConstant materializes weights/biases as constant operands.
func (cv *Converter) visitConstant(c *relay.Constant) error {
	tt := c.CheckedType().(*relay.TensorType)
	ot, err := operandTypeOf(tt, "constant")
	if err != nil {
		return err
	}
	idx := cv.model.AddOperand(cv.freshName("const"), ot, c.Value)
	cv.nodeEntryDict[c] = &NodeEntry{Inputs: []int{idx}, Outputs: []int{idx}}
	return nil
}

// visitTuple implements Listing 1's visit_tuple: the entry's outputs are the
// concatenation of the field outputs.
func (cv *Converter) visitTuple(t *relay.Tuple) error {
	entry := &NodeEntry{}
	for _, f := range t.Fields {
		fe := cv.nodeEntryDict[f]
		if fe == nil {
			return fmt.Errorf("nir: tuple field visited out of order")
		}
		entry.Inputs = append(entry.Inputs, fe.Outputs...)
	}
	entry.Outputs = entry.Inputs
	cv.nodeEntryDict[t] = entry
	return nil
}

func (cv *Converter) visitTupleGetItem(t *relay.TupleGetItem) error {
	te := cv.nodeEntryDict[t.Tuple]
	if te == nil {
		return fmt.Errorf("nir: tuple projection visited out of order")
	}
	if t.Index < 0 || t.Index >= len(te.Outputs) {
		return fmt.Errorf("nir: tuple projection index %d out of range (%d outputs)", t.Index, len(te.Outputs))
	}
	cv.nodeEntryDict[t] = &NodeEntry{
		Inputs:  []int{te.Outputs[t.Index]},
		Outputs: []int{te.Outputs[t.Index]},
	}
	return nil
}

// visitCall implements Listing 1's visit_call: gather argument operands into
// the NodeEntry, look up the handler in the dictionary, and let it create
// the Neuron operation.
func (cv *Converter) visitCall(call *relay.Call) error {
	if call.Op == nil {
		return fmt.Errorf("nir: call to a function value inside a region")
	}
	entry := &NodeEntry{}
	for _, a := range call.Args {
		ae := cv.nodeEntryDict[a]
		if ae == nil {
			return fmt.Errorf("nir: argument of %s visited out of order", call.Op.Name)
		}
		entry.Inputs = append(entry.Inputs, ae.Outputs...)
	}
	h, ok := opHandlerDict[call.Op.Name]
	if !ok {
		return fmt.Errorf("nir: no Neuron mapping for relay op %q — partitioning should not have "+
			"placed it in an external region", call.Op.Name)
	}
	code, ok := h.opcode(call)
	if !ok {
		return fmt.Errorf("nir: converting %s: this form of the op (attrs %v) has no Neuron equivalent", call.Op.Name, call.Attrs)
	}
	var err error
	if h.create != nil {
		err = h.create(cv, code, call, entry)
	} else {
		err = cv.addSimpleOp(code, call, entry, nil)
	}
	if err != nil {
		return fmt.Errorf("nir: converting %s: %w", call.Op.Name, err)
	}
	cv.nodeEntryDict[call] = entry
	return nil
}

// addSimpleOp creates the output operand from the call's checked type and
// appends one Neuron operation consuming entry.Inputs.
func (cv *Converter) addSimpleOp(code neuron.OpCode, call *relay.Call, entry *NodeEntry, attrs relay.Attrs) error {
	tt, ok := call.CheckedType().(*relay.TensorType)
	if !ok {
		return fmt.Errorf("tuple-typed result not representable as one operand")
	}
	ot, err := operandTypeOf(tt, "result of "+call.Op.Name)
	if err != nil {
		return err
	}
	out := cv.model.AddOperand(cv.freshName("t"), ot, nil)
	if attrs == nil {
		attrs = call.Attrs.Clone()
	}
	cv.model.AddOperation(code, entry.Inputs, []int{out}, attrs)
	entry.Outputs = []int{out}
	return nil
}
