package runtime

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	goruntime "runtime"
	"strings"
	"testing"

	"repro/internal/models"
)

// exportedEmotion is the artifact an untrusted peer would hand us: lite
// emotion, BYOC, split into its graph-JSON section and the constant pool
// (count + tensors) that follows it.
func exportedEmotion(t *testing.T) (jl jsonLib, pool []byte) {
	t.Helper()
	spec, err := models.Get("emotion")
	if err != nil {
		t.Fatal(err)
	}
	m, err := spec.Build(models.SizeLite)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := Build(m, BuildOptions{OptLevel: 3, UseNIR: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := lib.ExportLibrary(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()[len(libMagic):]
	n := binary.LittleEndian.Uint32(blob)
	if err := json.Unmarshal(blob[4:4+n], &jl); err != nil {
		t.Fatal(err)
	}
	if len(jl.Externals) == 0 {
		t.Fatal("emotion BYOC exported no NeuroPilot region")
	}
	return jl, blob[4+n:]
}

// reframe writes the artifact back out around an edited graph section.
func reframe(t *testing.T, jl jsonLib, pool []byte) []byte {
	t.Helper()
	js, err := json.Marshal(jl)
	if err != nil {
		t.Fatal(err)
	}
	out := append([]byte(nil), libMagic...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(js)))
	out = append(out, js...)
	return append(out, pool...)
}

// TestLoadLibraryRejectsMalformedRegions edits one field of an exported
// region per row. LoadLibrary parses bytes it did not write, so each edit
// must come back as an error naming the broken invariant — never a panic,
// never a library that fails at its first Estimate or Run.
func TestLoadLibraryRejectsMalformedRegions(t *testing.T) {
	cases := []struct {
		name string
		want string
		edit func(t *testing.T, jm *jsonNeuronModel, pool []byte) []byte
	}{
		{
			// Loaded before the loader ran the arity table; Lib.Estimate
			// then indexed the missing weight operand and panicked.
			"inputs of the first multi-input operation truncated to one", "op-arity",
			func(t *testing.T, jm *jsonNeuronModel, pool []byte) []byte {
				for i := range jm.Operations {
					if len(jm.Operations[i].Inputs) >= 2 {
						jm.Operations[i].Inputs = jm.Operations[i].Inputs[:1]
						return pool
					}
				}
				t.Fatal("region has no multi-input operation")
				return nil
			},
		},
		{
			"operand index out of range", "operand-range",
			func(t *testing.T, jm *jsonNeuronModel, pool []byte) []byte {
				jm.Operations[0].Inputs[0] = len(jm.Operands) + 5
				return pool
			},
		},
		{
			"unknown opcode", "unknown-opcode",
			func(t *testing.T, jm *jsonNeuronModel, pool []byte) []byte {
				jm.Operations[0].Code = 999
				return pool
			},
		},
		{
			// Loaded before the loader checked scale > 0.
			"quantized operand with scale 0", "quant-params",
			func(t *testing.T, jm *jsonNeuronModel, pool []byte) []byte {
				jm.Operands[jm.Outputs[0]].DType = "uint8"
				jm.Operands[jm.Outputs[0]].Quant = &jsonQuant{Scale: 0, Zero: 128}
				return pool
			},
		},
		{
			// Loaded before fused-bias compared the bias with the output's
			// channels; the kernel then sliced past the short bias inside a
			// parallel worker at the first inference.
			"fused bias swapped for a layer's of another length", "fused-bias",
			func(t *testing.T, jm *jsonNeuronModel, pool []byte) []byte {
				var biases []int
				for _, op := range jm.Operations {
					if len(op.Inputs) == 3 {
						biases = append(biases, op.Inputs[2])
					}
				}
				for _, op := range jm.Operations {
					for _, b := range biases {
						if len(op.Inputs) == 3 && jm.Operands[b].Shape[0] != jm.Operands[op.Inputs[2]].Shape[0] {
							op.Inputs[2] = b
							return pool
						}
					}
				}
				t.Fatal("region has no two fused biases of different lengths")
				return nil
			},
		},
		{
			"plan device outside devices", "plan-device",
			func(t *testing.T, jm *jsonNeuronModel, pool []byte) []byte {
				jm.Plan[0] = 7
				return pool
			},
		},
		{
			"operand constant outside the pool", "out of pool",
			func(t *testing.T, jm *jsonNeuronModel, pool []byte) []byte {
				for i := range jm.Operands {
					if jm.Operands[i].Const >= 0 {
						jm.Operands[i].Const = 1 << 20
						return pool
					}
				}
				t.Fatal("region has no constant operand")
				return nil
			},
		},
		{
			// A count is not a size: the tiny file that follows it is all
			// the loader may allocate for.
			"nConsts = 0xFFFFFFFF", "reading constant",
			func(t *testing.T, jm *jsonNeuronModel, pool []byte) []byte {
				return []byte{0xff, 0xff, 0xff, 0xff}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			jl, pool := exportedEmotion(t)
			pool = tc.edit(t, &jl.Externals[0], pool)
			artifact := reframe(t, jl, pool)

			var before, after goruntime.MemStats
			goruntime.ReadMemStats(&before)
			lib, err := LoadLibrary(bytes.NewReader(artifact), nil)
			goruntime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("malformed artifact loaded: %d region(s)", len(lib.External))
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error does not name %q: %v", tc.want, err)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
				t.Errorf("refusing a %d-byte artifact allocated %d MB", len(artifact), grew>>20)
			}
		})
	}
}
