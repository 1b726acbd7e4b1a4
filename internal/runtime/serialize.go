package runtime

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/neuron"
	"repro/internal/relay"
	"repro/internal/soc"
	"repro/internal/tensor"
)

// Artifact serialization — the reproduction of the paper's §4.5 flow:
// compile on the server, lib.export_library(path), copy to the Android
// device, load with the runtime-only API and run. ExportLibrary writes a
// self-contained binary artifact (graph JSON + weight pool + compiled Neuron
// plans); LoadLibrary reconstructs a runnable Lib in a process that never saw
// the frontend or the compiler passes.

var libMagic = []byte("NPLIB\x01")

type jsonQuant struct {
	Scale float64 `json:"scale"`
	Zero  int32   `json:"zero"`
}

type jsonType struct {
	Kind   string     `json:"kind"` // "tensor" | "tuple" | "func"
	Shape  []int      `json:"shape,omitempty"`
	DType  string     `json:"dtype,omitempty"`
	Quant  *jsonQuant `json:"quant,omitempty"`
	Fields []jsonType `json:"fields,omitempty"`
	Params []jsonType `json:"params,omitempty"`
	Ret    *jsonType  `json:"ret,omitempty"`
}

type jsonAttr struct {
	K  string    `json:"k"`
	I  int64     `json:"i,omitempty"`
	F  float64   `json:"f,omitempty"`
	B  bool      `json:"b,omitempty"`
	S  string    `json:"s,omitempty"`
	Is []int     `json:"is,omitempty"`
	Fs []float64 `json:"fs,omitempty"`
}

type jsonNode struct {
	Kind    string              `json:"kind"` // var|const|call|tuple|get|func
	Name    string              `json:"name,omitempty"`
	Type    *jsonType           `json:"type,omitempty"`
	Const   int                 `json:"const,omitempty"`
	Op      string              `json:"op,omitempty"`
	Fn      int                 `json:"fn,omitempty"`
	Args    []int               `json:"args,omitempty"`
	Attrs   map[string]jsonAttr `json:"attrs,omitempty"`
	Index   int                 `json:"index,omitempty"`
	Params  []int               `json:"params,omitempty"`
	Body    int                 `json:"body,omitempty"`
	FnAttrs map[string]string   `json:"fnattrs,omitempty"`
}

type jsonFunc struct {
	Name  string     `json:"name"`
	Nodes []jsonNode `json:"nodes"`
	Root  int        `json:"root"`
}

type jsonOperand struct {
	Name  string     `json:"name"`
	Shape []int      `json:"shape"`
	DType string     `json:"dtype"`
	Quant *jsonQuant `json:"quant,omitempty"`
	Const int        `json:"const"` // index into the pool, -1 for runtime operands
}

type jsonOperation struct {
	Code    int                 `json:"code"`
	Inputs  []int               `json:"inputs"`
	Outputs []int               `json:"outputs"`
	Attrs   map[string]jsonAttr `json:"attrs,omitempty"`
}

type jsonNeuronModel struct {
	Name       string          `json:"name"`
	Operands   []jsonOperand   `json:"operands"`
	Operations []jsonOperation `json:"operations"`
	Inputs     []int           `json:"inputs"`
	Outputs    []int           `json:"outputs"`
	Plan       []int           `json:"plan"`
	Devices    []int           `json:"devices"`
}

type jsonLib struct {
	OptLevel   int               `json:"opt_level"`
	UseNIR     bool              `json:"use_nir"`
	NIRDevices []int             `json:"nir_devices,omitempty"`
	Functions  []jsonFunc        `json:"functions"`
	Externals  []jsonNeuronModel `json:"externals,omitempty"`
}

// constPool assigns stable indices to constant tensors during encode.
type constPool struct {
	tensors []*tensor.Tensor
	index   map[*tensor.Tensor]int
}

func (p *constPool) add(t *tensor.Tensor) int {
	if p.index == nil {
		p.index = map[*tensor.Tensor]int{}
	}
	if i, ok := p.index[t]; ok {
		return i
	}
	i := len(p.tensors)
	p.tensors = append(p.tensors, t)
	p.index[t] = i
	return i
}

func encodeQuant(q *tensor.QuantParams) *jsonQuant {
	if q == nil {
		return nil
	}
	return &jsonQuant{Scale: q.Scale, Zero: q.ZeroPoint}
}

func decodeQuant(q *jsonQuant) *tensor.QuantParams {
	if q == nil {
		return nil
	}
	return &tensor.QuantParams{Scale: q.Scale, ZeroPoint: q.Zero}
}

func encodeType(t relay.Type) (*jsonType, error) {
	switch tt := t.(type) {
	case *relay.TensorType:
		return &jsonType{Kind: "tensor", Shape: tt.Shape, DType: tt.DType.String(), Quant: encodeQuant(tt.Quant)}, nil
	case *relay.TupleType:
		out := &jsonType{Kind: "tuple"}
		for _, f := range tt.Fields {
			jf, err := encodeType(f)
			if err != nil {
				return nil, err
			}
			out.Fields = append(out.Fields, *jf)
		}
		return out, nil
	case *relay.FuncType:
		out := &jsonType{Kind: "func"}
		for _, p := range tt.Params {
			jp, err := encodeType(p)
			if err != nil {
				return nil, err
			}
			out.Params = append(out.Params, *jp)
		}
		r, err := encodeType(tt.Ret)
		if err != nil {
			return nil, err
		}
		out.Ret = r
		return out, nil
	}
	return nil, fmt.Errorf("runtime: cannot serialize type %T", t)
}

func decodeType(j *jsonType) (relay.Type, error) {
	switch j.Kind {
	case "tensor":
		dt, err := tensor.ParseDType(j.DType)
		if err != nil {
			return nil, err
		}
		return &relay.TensorType{Shape: append(tensor.Shape(nil), j.Shape...), DType: dt, Quant: decodeQuant(j.Quant)}, nil
	case "tuple":
		out := &relay.TupleType{}
		for i := range j.Fields {
			f, err := decodeType(&j.Fields[i])
			if err != nil {
				return nil, err
			}
			out.Fields = append(out.Fields, f)
		}
		return out, nil
	case "func":
		out := &relay.FuncType{}
		for i := range j.Params {
			p, err := decodeType(&j.Params[i])
			if err != nil {
				return nil, err
			}
			out.Params = append(out.Params, p)
		}
		r, err := decodeType(j.Ret)
		if err != nil {
			return nil, err
		}
		out.Ret = r
		return out, nil
	}
	return nil, fmt.Errorf("runtime: unknown serialized type kind %q", j.Kind)
}

func encodeAttrs(a relay.Attrs) (map[string]jsonAttr, error) {
	if len(a) == 0 {
		return nil, nil
	}
	out := map[string]jsonAttr{}
	for k, v := range a {
		switch vv := v.(type) {
		case int:
			out[k] = jsonAttr{K: "i", I: int64(vv)}
		case float64:
			out[k] = jsonAttr{K: "f", F: vv}
		case bool:
			out[k] = jsonAttr{K: "b", B: vv}
		case string:
			out[k] = jsonAttr{K: "s", S: vv}
		case []int:
			out[k] = jsonAttr{K: "is", Is: vv}
		case []float64:
			out[k] = jsonAttr{K: "fs", Fs: vv}
		default:
			return nil, fmt.Errorf("runtime: cannot serialize attr %q of type %T", k, v)
		}
	}
	return out, nil
}

func decodeAttrs(j map[string]jsonAttr) (relay.Attrs, error) {
	out := relay.Attrs{}
	for k, v := range j {
		switch v.K {
		case "i":
			out[k] = int(v.I)
		case "f":
			out[k] = v.F
		case "b":
			out[k] = v.B
		case "s":
			out[k] = v.S
		case "is":
			out[k] = v.Is
		case "fs":
			out[k] = v.Fs
		default:
			return nil, fmt.Errorf("runtime: unknown attr kind %q", v.K)
		}
	}
	return out, nil
}

// encodeFunc flattens a function's expression DAG into a node table.
func encodeFunc(name string, fn *relay.Function, pool *constPool) (jsonFunc, error) {
	jf := jsonFunc{Name: name}
	ids := map[relay.Expr]int{}
	var encode func(e relay.Expr) (int, error)
	encode = func(e relay.Expr) (int, error) {
		if id, ok := ids[e]; ok {
			return id, nil
		}
		var node jsonNode
		switch n := e.(type) {
		case *relay.Var:
			ty, err := encodeType(n.TypeAnnotation)
			if err != nil {
				return 0, err
			}
			node = jsonNode{Kind: "var", Name: n.Name, Type: ty}
		case *relay.Constant:
			node = jsonNode{Kind: "const", Const: pool.add(n.Value)}
		case *relay.Call:
			attrs, err := encodeAttrs(n.Attrs)
			if err != nil {
				return 0, err
			}
			node = jsonNode{Kind: "call", Attrs: attrs, Fn: -1}
			if n.Op != nil {
				node.Op = n.Op.Name
			} else {
				fid, err := encode(n.Fn)
				if err != nil {
					return 0, err
				}
				node.Fn = fid
			}
			for _, a := range n.Args {
				aid, err := encode(a)
				if err != nil {
					return 0, err
				}
				node.Args = append(node.Args, aid)
			}
		case *relay.Tuple:
			node = jsonNode{Kind: "tuple"}
			for _, f := range n.Fields {
				fid, err := encode(f)
				if err != nil {
					return 0, err
				}
				node.Args = append(node.Args, fid)
			}
		case *relay.TupleGetItem:
			tid, err := encode(n.Tuple)
			if err != nil {
				return 0, err
			}
			node = jsonNode{Kind: "get", Args: []int{tid}, Index: n.Index}
		case *relay.Function:
			node = jsonNode{Kind: "func", FnAttrs: n.FnAttrs}
			for _, p := range n.Params {
				pid, err := encode(p)
				if err != nil {
					return 0, err
				}
				node.Params = append(node.Params, pid)
			}
			bid, err := encode(n.Body)
			if err != nil {
				return 0, err
			}
			node.Body = bid
		default:
			return 0, fmt.Errorf("runtime: cannot serialize expression %T", e)
		}
		id := len(jf.Nodes)
		jf.Nodes = append(jf.Nodes, node)
		ids[e] = id
		return id, nil
	}
	root, err := encode(fn)
	if err != nil {
		return jf, err
	}
	jf.Root = root
	return jf, nil
}

// poolConst resolves a constant reference of a loaded artifact; every index
// read from the graph section goes through here.
func poolConst(pool []*tensor.Tensor, i int) (*tensor.Tensor, error) {
	if i < 0 || i >= len(pool) {
		return nil, fmt.Errorf("runtime: constant index %d out of pool (%d)", i, len(pool))
	}
	return pool[i], nil
}

// decodeFunc rebuilds a function from its node table.
func decodeFunc(jf jsonFunc, pool []*tensor.Tensor) (*relay.Function, error) {
	exprs := make([]relay.Expr, len(jf.Nodes))
	get := func(id int) (relay.Expr, error) {
		if id < 0 || id >= len(exprs) || exprs[id] == nil {
			return nil, fmt.Errorf("runtime: bad node reference %d", id)
		}
		return exprs[id], nil
	}
	for i, n := range jf.Nodes {
		switch n.Kind {
		case "var":
			ty, err := decodeType(n.Type)
			if err != nil {
				return nil, err
			}
			exprs[i] = relay.NewVar(n.Name, ty)
		case "const":
			c, err := poolConst(pool, n.Const)
			if err != nil {
				return nil, err
			}
			exprs[i] = relay.Const(c)
		case "call":
			attrs, err := decodeAttrs(n.Attrs)
			if err != nil {
				return nil, err
			}
			args := make([]relay.Expr, len(n.Args))
			for j, a := range n.Args {
				if args[j], err = get(a); err != nil {
					return nil, err
				}
			}
			if n.Op != "" {
				op, ok := relay.LookupOp(n.Op)
				if !ok {
					return nil, fmt.Errorf("runtime: artifact references unknown op %q", n.Op)
				}
				exprs[i] = relay.NewCall(op, args, attrs)
			} else {
				fn, err := get(n.Fn)
				if err != nil {
					return nil, err
				}
				c := relay.NewFnCall(fn, args)
				c.Attrs = attrs
				exprs[i] = c
			}
		case "tuple":
			fields := make([]relay.Expr, len(n.Args))
			for j, a := range n.Args {
				f, err := get(a)
				if err != nil {
					return nil, err
				}
				fields[j] = f
			}
			exprs[i] = relay.NewTuple(fields)
		case "get":
			tup, err := get(n.Args[0])
			if err != nil {
				return nil, err
			}
			exprs[i] = relay.NewTupleGetItem(tup, n.Index)
		case "func":
			params := make([]*relay.Var, len(n.Params))
			for j, p := range n.Params {
				pe, err := get(p)
				if err != nil {
					return nil, err
				}
				v, ok := pe.(*relay.Var)
				if !ok {
					return nil, fmt.Errorf("runtime: function param node %d is %T", p, pe)
				}
				params[j] = v
			}
			body, err := get(n.Body)
			if err != nil {
				return nil, err
			}
			fn := relay.NewFunc(params, body)
			for k, v := range n.FnAttrs {
				fn.FnAttrs[k] = v
			}
			exprs[i] = fn
		default:
			return nil, fmt.Errorf("runtime: unknown node kind %q", n.Kind)
		}
	}
	root, err := get(jf.Root)
	if err != nil {
		return nil, err
	}
	fn, ok := root.(*relay.Function)
	if !ok {
		return nil, fmt.Errorf("runtime: function root is %T", root)
	}
	return fn, nil
}

// ExportLibrary serializes the built library (graph + weights + compiled
// Neuron plans) into w — the lib.export_library of Listing 6.
func (lib *Lib) ExportLibrary(w io.Writer) error {
	pool := &constPool{}
	jl := jsonLib{OptLevel: lib.Opts.OptLevel, UseNIR: lib.Opts.UseNIR}
	for _, d := range lib.Opts.NIRDevices {
		jl.NIRDevices = append(jl.NIRDevices, int(d))
	}
	var encErr error
	lib.Module.Functions(func(name string, fn *relay.Function) {
		if encErr != nil {
			return
		}
		jf, err := encodeFunc(name, fn, pool)
		if err != nil {
			encErr = err
			return
		}
		jl.Functions = append(jl.Functions, jf)
	})
	if encErr != nil {
		return encErr
	}
	for _, name := range sortedKeys(lib.External) {
		cm := lib.External[name]
		jm := jsonNeuronModel{Name: name}
		for _, od := range cm.Model.Operands {
			jo := jsonOperand{
				Name:  od.Name,
				Shape: od.Type.Shape,
				DType: od.Type.DType.String(),
				Quant: encodeQuant(od.Type.Quant),
				Const: -1,
			}
			if od.Const != nil {
				jo.Const = pool.add(od.Const)
			}
			jm.Operands = append(jm.Operands, jo)
		}
		for _, op := range cm.Model.Operations {
			attrs, err := encodeAttrs(op.Attrs)
			if err != nil {
				return err
			}
			jm.Operations = append(jm.Operations, jsonOperation{
				Code: int(op.Code), Inputs: op.Inputs, Outputs: op.Outputs, Attrs: attrs,
			})
		}
		jm.Inputs = cm.Model.Inputs
		jm.Outputs = cm.Model.Outputs
		for _, d := range cm.Plan {
			jm.Plan = append(jm.Plan, int(d))
		}
		for _, d := range cm.Devices {
			jm.Devices = append(jm.Devices, int(d))
		}
		jl.Externals = append(jl.Externals, jm)
	}

	blob, err := json.Marshal(jl)
	if err != nil {
		return err
	}
	if _, err := w.Write(libMagic); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(blob))); err != nil {
		return err
	}
	if _, err := w.Write(blob); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(pool.tensors))); err != nil {
		return err
	}
	for _, t := range pool.tensors {
		if err := t.Serialize(w); err != nil {
			return err
		}
	}
	return nil
}

// LoadLibrary reconstructs a runnable Lib from an exported artifact; sc is
// the deployment platform (the "device side" of §4.5).
func LoadLibrary(r io.Reader, sc *soc.SoC) (*Lib, error) {
	if sc == nil {
		sc = soc.NewDimensity800()
	}
	magic := make([]byte, len(libMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("runtime: reading artifact header: %w", err)
	}
	if !bytes.Equal(magic, libMagic) {
		return nil, fmt.Errorf("runtime: not a model library artifact (bad magic)")
	}
	var jsonLen uint32
	if err := binary.Read(r, binary.LittleEndian, &jsonLen); err != nil {
		return nil, err
	}
	// Graph descriptions are small (weights live in the constant pool); a
	// multi-megabyte length means a corrupt or hostile artifact.
	const maxGraphJSON = 64 << 20
	if jsonLen > maxGraphJSON {
		return nil, fmt.Errorf("runtime: artifact graph section %d bytes exceeds the %d limit", jsonLen, maxGraphJSON)
	}
	blob := make([]byte, jsonLen)
	if _, err := io.ReadFull(r, blob); err != nil {
		return nil, err
	}
	var jl jsonLib
	if err := json.Unmarshal(blob, &jl); err != nil {
		return nil, fmt.Errorf("runtime: corrupt artifact graph: %w", err)
	}
	var nConsts uint32
	if err := binary.Read(r, binary.LittleEndian, &nConsts); err != nil {
		return nil, err
	}
	// The count is a claim, not a size: the pool grows as constants parse,
	// so a hostile count costs no more than the bytes that follow it.
	var pool []*tensor.Tensor
	for i := uint32(0); i < nConsts; i++ {
		t, err := tensor.ReadFrom(r)
		if err != nil {
			return nil, fmt.Errorf("runtime: reading constant %d of %d: %w", i, nConsts, err)
		}
		pool = append(pool, t)
	}

	var mod *relay.Module
	fns := map[string]*relay.Function{}
	for _, jf := range jl.Functions {
		fn, err := decodeFunc(jf, pool)
		if err != nil {
			return nil, fmt.Errorf("runtime: decoding @%s: %w", jf.Name, err)
		}
		fns[jf.Name] = fn
	}
	main, ok := fns[relay.MainFunc]
	if !ok {
		return nil, fmt.Errorf("runtime: artifact has no main function")
	}
	mod = relay.NewModule(main)
	for name, fn := range fns {
		if name == relay.MainFunc {
			continue
		}
		if err := mod.Add(name, fn); err != nil {
			return nil, err
		}
	}
	// Re-link: calls in main reference their own decoded Function values;
	// replace function-call callees whose global_symbol matches a module
	// definition so External lookup and module listing agree.
	relink := func(e relay.Expr) relay.Expr {
		c, ok := e.(*relay.Call)
		if !ok || c.Fn == nil {
			return e
		}
		fn, ok := c.Fn.(*relay.Function)
		if !ok {
			return e
		}
		if sym := fn.Attr(relay.FnAttrGlobalSymbol); sym != "" {
			if def, ok := mod.Get(sym); ok {
				return relay.NewFnCall(def, c.Args)
			}
		}
		return e
	}
	mod.SetMain(relay.NewFunc(main.Params, relay.Rewrite(main.Body, relink)))
	if err := relay.InferModule(mod); err != nil {
		return nil, fmt.Errorf("runtime: loaded artifact is ill-typed: %w", err)
	}

	lib := &Lib{Module: mod, External: map[string]*neuron.CompiledModel{}, SoC: sc}
	lib.Opts.OptLevel = jl.OptLevel
	lib.Opts.UseNIR = jl.UseNIR
	for _, d := range jl.NIRDevices {
		lib.Opts.NIRDevices = append(lib.Opts.NIRDevices, soc.DeviceKind(d))
	}
	for _, jm := range jl.Externals {
		model := neuron.NewModel(jm.Name)
		for _, jo := range jm.Operands {
			dt, err := tensor.ParseDType(jo.DType)
			if err != nil {
				return nil, err
			}
			var cval *tensor.Tensor
			if jo.Const >= 0 { // -1 marks a runtime-fed operand
				if cval, err = poolConst(pool, jo.Const); err != nil {
					return nil, fmt.Errorf("runtime: rehydrating %s: operand %q: %w", jm.Name, jo.Name, err)
				}
			}
			model.AddOperand(jo.Name, neuron.OperandType{
				Shape: append(tensor.Shape(nil), jo.Shape...),
				DType: dt,
				Quant: decodeQuant(jo.Quant),
			}, cval)
		}
		for _, jop := range jm.Operations {
			attrs, err := decodeAttrs(jop.Attrs)
			if err != nil {
				return nil, err
			}
			model.AddOperation(neuron.OpCode(jop.Code), jop.Inputs, jop.Outputs, attrs)
		}
		model.Inputs = jm.Inputs
		model.Outputs = jm.Outputs
		plan := make([]soc.DeviceKind, len(jm.Plan))
		for i, d := range jm.Plan {
			plan[i] = soc.DeviceKind(d)
		}
		devices := make([]soc.DeviceKind, len(jm.Devices))
		for i, d := range jm.Devices {
			devices[i] = soc.DeviceKind(d)
		}
		cm, err := neuron.NewCompiledModel(model, sc, devices, plan)
		if err != nil {
			return nil, fmt.Errorf("runtime: rehydrating %s: %w", jm.Name, err)
		}
		lib.External[jm.Name] = cm
	}
	return lib, nil
}

func sortedKeys(m map[string]*neuron.CompiledModel) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j-1] > keys[j]; j-- {
			keys[j-1], keys[j] = keys[j], keys[j-1]
		}
	}
	return keys
}
