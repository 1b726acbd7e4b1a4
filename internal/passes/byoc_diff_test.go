package passes

import (
	"math/rand"
	"testing"

	"repro/internal/models"
	"repro/internal/relay"
	"repro/internal/tensor"
)

// Differential tests of the dense-id partitioner against the BFS oracle in
// byoc_oracle_test.go: the whole model zoo, seeded random DAGs, and a fuzz
// target over the same byte-encoded DAGs.

var partitionOptionGrid = []PartitionOptions{
	{MergeRegions: true, MinRegionSize: 1},
	{MergeRegions: true, MinRegionSize: 2},
	{MergeRegions: false, MinRegionSize: 1},
	{MergeRegions: false, MinRegionSize: 2},
}

// neuronOps is the NeuroPilot operator dictionary by name. Package nir
// imports this one, so its Supported predicate is out of reach here; the
// names are what shapes the zoo's regions.
var neuronOps = map[string]bool{
	"nn.conv2d": true, "qnn.conv2d": true, "nn.dense": true, "qnn.dense": true,
	"nn.bias_add": true, "add": true, "qnn.add": true, "subtract": true,
	"multiply": true, "maximum": true, "minimum": true, "nn.relu": true,
	"clip": true, "sigmoid": true, "tanh": true, "nn.softmax": true,
	"nn.max_pool2d": true, "nn.avg_pool2d": true, "nn.global_avg_pool2d": true,
	"concatenate": true, "qnn.concatenate": true, "reshape": true,
	"nn.batch_flatten": true, "squeeze": true, "expand_dims": true,
	"transpose": true, "nn.pad": true, "nn.upsampling": true,
	"qnn.quantize": true, "qnn.dequantize": true, "qnn.requantize": true,
}

func neuronLike(c *relay.Call) bool { return neuronOps[c.Op.Name] }

// withIslands additionally refuses every nth operator call of m (post-order),
// which scatters host islands through otherwise fully supported models and
// makes the convexity check refuse merges the zoo alone rarely does.
func withIslands(m *relay.Module, sup Supported, nth int) Supported {
	deny := map[*relay.Call]bool{}
	i := 0
	relay.PostOrderVisit(m.Main().Body, func(e relay.Expr) {
		if c, ok := e.(*relay.Call); ok && c.Op != nil {
			if i%nth == nth/2 {
				deny[c] = true
			}
			i++
		}
	})
	return func(c *relay.Call) bool { return !deny[c] && sup(c) }
}

func TestPartitionMatchesOracleOnZoo(t *testing.T) {
	for _, name := range models.Names() {
		t.Run(name, func(t *testing.T) {
			spec, err := models.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			m, err := spec.Build(models.SizeFull)
			if err != nil {
				t.Fatal(err)
			}
			// The module runtime.Build hands to partition_for_nir.
			m, err = Sequential(m, NewContext(3), SimplifyInference(), FoldConstant(), EliminateCommonSubexpr())
			if err != nil {
				t.Fatal(err)
			}
			for _, opts := range partitionOptionGrid {
				checkAgainstOracle(t, m, neuronLike, opts)
				checkAgainstOracle(t, m, withIslands(m, neuronLike, 7), opts)
			}
		})
	}
}

// ------------------------------------------------------------ random DAGs

// dagGen decodes a byte string into a small well-typed module built to hit
// the partitioner's corner cases: diamonds, concatenate tuples whose fields
// come from inside and outside a region, tuples with both member and host
// consumers, multi-output tuple roots, unsupported islands (by operator name
// and by call), TupleGetItem, and calls of nested functions. Every value is a
// float32 tensor of shape [rows, 4], so any two values broadcast when their
// rows agree or one has a single row. Running out of bytes reads zeros.
type dagGen struct {
	src    []byte
	pos    int
	params []*relay.Var
	vals   []dagValue // tensor-typed expressions
	tups   []dagTuple // tuple-typed expressions
	deny   map[*relay.Call]bool
	used   map[relay.Expr]bool
}

type dagValue struct {
	e    relay.Expr
	rows int
}

type dagTuple struct {
	e    relay.Expr
	rows []int
}

const dagMaxSteps = 96

var deniedOps = map[string]bool{"nn.leaky_relu": true, "exp": true, "sqrt": true, "divide": true}

func (g *dagGen) next() int {
	if g.pos >= len(g.src) {
		return 0
	}
	b := g.src[g.pos]
	g.pos++
	return int(b)
}

// pick chooses an operand: one of the six most recent values on a low byte
// (long chains, tight diamonds), any earlier one otherwise (long skip edges).
func (g *dagGen) pick() dagValue {
	b := g.next()
	n := len(g.vals)
	if b < 160 && n > 6 {
		return g.use(g.vals[n-1-b%6])
	}
	return g.use(g.vals[b%n])
}

func (g *dagGen) use(v dagValue) dagValue {
	g.used[v.e] = true
	return v
}

func (g *dagGen) input(rows int) dagValue {
	v := relay.NewVar("x"+string(rune('0'+len(g.params))), relay.TType(tensor.Float32, rows, 4))
	g.params = append(g.params, v)
	return dagValue{v, rows}
}

// call builds an operator call and, on one byte in six, refuses it
// individually whatever its operator.
func (g *dagGen) call(op *relay.Op, attrs relay.Attrs, args ...relay.Expr) *relay.Call {
	c := relay.NewCall(op, args, attrs)
	if g.next()%6 == 0 {
		g.deny[c] = true
	}
	return c
}

func (g *dagGen) newTuple() dagTuple {
	k := 2 + g.next()%3
	fields := make([]relay.Expr, k)
	rows := make([]int, k)
	for i := range fields {
		v := g.pick()
		fields[i], rows[i] = v.e, v.rows
	}
	return dagTuple{relay.NewTuple(fields), rows}
}

func (g *dagGen) pickTuple() dagTuple {
	if len(g.tups) == 0 || g.next()%4 == 0 {
		g.tups = append(g.tups, g.newTuple())
	}
	return g.tups[g.next()%len(g.tups)]
}

func (g *dagGen) step() {
	unary := []*relay.Op{relay.OpReLU, relay.OpSigmoid, relay.OpTanh}
	switch g.next() % 10 {
	case 0, 1, 2:
		v := g.pick()
		g.vals = append(g.vals, dagValue{g.call(unary[g.next()%3], nil, v.e), v.rows})
	case 3:
		v := g.pick()
		var c *relay.Call
		switch g.next() % 3 {
		case 0:
			c = g.call(relay.OpLeakyReLU, relay.Attrs{"alpha": 0.1}, v.e)
		case 1:
			c = g.call(relay.OpExp, nil, v.e)
		default:
			c = g.call(relay.OpSqrt, nil, v.e)
		}
		g.vals = append(g.vals, dagValue{c, v.rows})
	case 4, 5:
		binary := []*relay.Op{relay.OpAdd, relay.OpMultiply, relay.OpMaximum, relay.OpDivide}
		a, b := g.pick(), g.pick()
		if a.rows != b.rows && a.rows != 1 && b.rows != 1 {
			b = a
		}
		rows := a.rows
		if b.rows > rows {
			rows = b.rows
		}
		g.vals = append(g.vals, dagValue{g.call(binary[g.next()%4], nil, a.e, b.e), rows})
	case 6:
		g.tups = append(g.tups, g.newTuple())
	case 7:
		t := g.pickTuple()
		rows := 0
		for _, r := range t.rows {
			rows += r
		}
		g.vals = append(g.vals, dagValue{g.call(relay.OpConcatenate, relay.Attrs{"axis": 0}, t.e), rows})
	case 8:
		t := g.pickTuple()
		i := g.next() % len(t.rows)
		g.vals = append(g.vals, dagValue{relay.NewTupleGetItem(t.e, i), t.rows[i]})
	case 9:
		// A call of a nested function: opaque to the partitioner, host-side.
		a := g.pick()
		pa := relay.NewVar("fa", relay.TType(tensor.Float32, a.rows, 4))
		if g.next()%2 == 0 {
			fn := relay.NewFunc([]*relay.Var{pa},
				relay.NewCall(relay.OpTanh, []relay.Expr{relay.NewCall(relay.OpReLU, []relay.Expr{pa}, nil)}, nil))
			g.vals = append(g.vals, dagValue{relay.NewFnCall(fn, []relay.Expr{a.e}), a.rows})
			return
		}
		b := g.pick()
		pb := relay.NewVar("fb", relay.TType(tensor.Float32, b.rows, 4))
		fn := relay.NewFunc([]*relay.Var{pa, pb}, relay.NewTuple([]relay.Expr{
			relay.NewCall(relay.OpReLU, []relay.Expr{pa}, nil),
			relay.NewCall(relay.OpSigmoid, []relay.Expr{pb}, nil),
		}))
		g.tups = append(g.tups, dagTuple{relay.NewFnCall(fn, []relay.Expr{a.e, b.e}), []int{a.rows, b.rows}})
	}
}

// dagFromBytes builds the module and the Supported predicate that goes with
// it (operators refused by name plus the calls refused individually).
func dagFromBytes(data []byte) (*relay.Module, Supported) {
	g := &dagGen{src: data, deny: map[*relay.Call]bool{}, used: map[relay.Expr]bool{}}
	// The root is the last value on one first byte in three, else a tuple of
	// every value nothing consumes (a multi-output root, which also keeps the
	// whole graph live).
	lastOnly := g.next()%3 == 0
	g.vals = append(g.vals, g.input(1), g.input(1), g.input(2))
	for i := 0; i < dagMaxSteps && g.pos < len(g.src); i++ {
		g.step()
	}
	root := g.vals[len(g.vals)-1].e
	if !lastOnly {
		var sinks []relay.Expr
		for _, v := range g.vals[len(g.params):] {
			if !g.used[v.e] {
				sinks = append(sinks, v.e)
			}
		}
		if len(sinks) > 1 {
			root = relay.NewTuple(sinks)
		}
	}
	sup := func(c *relay.Call) bool { return !deniedOps[c.Op.Name] && !g.deny[c] }
	return relay.NewModule(relay.NewFunc(g.params, root)), sup
}

func TestPartitionMatchesOracleOnRandomDAGs(t *testing.T) {
	const graphs = 600
	rng := rand.New(rand.NewSource(20220829))
	var merged, refused, multiOutput, projections, fnCalls, cycles int
	for i := 0; i < graphs; i++ {
		data := make([]byte, 16+rng.Intn(400))
		rng.Read(data)
		m, sup := dagFromBytes(data)
		if err := relay.InferModule(m); err != nil {
			t.Fatalf("graph %d: generator produced an ill-typed module: %v", i, err)
		}
		for _, opts := range partitionOptionGrid {
			out := checkAgainstOracle(t, m, sup, opts)
			if out == nil {
				cycles++
				continue
			}
			if err := relay.InferModule(out); err != nil {
				t.Errorf("graph %d %+v: partitioned module is ill-typed: %v", i, opts, err)
			}
			for _, name := range out.ExternalFuncs("ext") {
				if fn, _ := out.Get(name); isTuple(fn.Body) {
					multiOutput++
				}
			}
		}
		if t.Failed() {
			t.Fatalf("graph %d (%d bytes %x) disagrees with the oracle", i, len(data), data)
		}

		// What the generator covered, so the agreement above is not vacuous.
		_, o, _ := oraclePartition(m, "ext", sup, DefaultPartitionOptions())
		for _, d := range o.decisions {
			if d.merged {
				merged++
			} else {
				refused++
			}
		}
		relay.PostOrderVisit(m.Main().Body, func(e relay.Expr) {
			switch n := e.(type) {
			case *relay.TupleGetItem:
				projections++
			case *relay.Call:
				if n.Fn != nil {
					fnCalls++
				}
			}
		})
	}
	t.Logf("%d graphs: %d merges, %d refused merges, %d multi-output regions, %d projections, %d function calls, %d region cycles",
		graphs, merged, refused, multiOutput, projections, fnCalls, cycles)
	if merged == 0 || refused == 0 || multiOutput == 0 || projections == 0 || fnCalls == 0 {
		t.Error("the generator no longer reaches every case it is meant to cover")
	}
}

func isTuple(e relay.Expr) bool {
	_, ok := e.(*relay.Tuple)
	return ok
}

// FuzzPartitionForCompiler: any byte string decodes to a module on which the
// partitioner either fails exactly as the oracle does or produces the
// oracle's module with convex regions; it never panics.
func FuzzPartitionForCompiler(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 128 {
			// ~25 steps already reach every shape, and the fuzz engine's
			// minimiser stalls the run for most of a minute on longer inputs.
			t.Skip()
		}
		m, sup := dagFromBytes(data)
		for _, opts := range partitionOptionGrid {
			checkAgainstOracle(t, m, sup, opts)
		}
	})
}
