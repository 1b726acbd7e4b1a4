package runtime

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/relay"
)

// Content addressing for compiled artifacts: a built Lib is a pure function
// of (source module, build options), so a fleet-wide cache can key compiled
// artifacts by a hash of those inputs and compile each distinct
// configuration exactly once (internal/registry layers the store and
// single-flight on top of this file).
//
// EncodeModule reuses the ExportLibrary node-table encoding, which is
// deterministic end to end: Module.Functions iterates in sorted name order,
// encodeFunc assigns node ids in post-order, the constant pool indexes
// tensors in first-reference order, and json.Marshal sorts map keys.

// EncodeModule serializes a relay module (graph + constants) into canonical
// bytes: two encodings of the same module are identical, byte for byte, even
// across processes. The encoding is the artifact graph section of
// ExportLibrary plus the raw constant pool.
func EncodeModule(m *relay.Module) ([]byte, error) {
	pool := &constPool{}
	var jl jsonLib
	var encErr error
	m.Functions(func(name string, fn *relay.Function) {
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
		return nil, encErr
	}
	blob, err := json.Marshal(jl)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	buf.Write(blob)
	if err := binary.Write(&buf, binary.LittleEndian, uint32(len(pool.tensors))); err != nil {
		return nil, err
	}
	for _, t := range pool.tensors {
		if err := t.Serialize(&buf); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// Fingerprint renders the semantically relevant build options as a canonical
// string. Two option sets with equal fingerprints produce bitwise-identical
// libraries from the same module. Non-semantic fields —
// Tracer, Verify — are deliberately excluded: they change diagnostics, not
// the artifact.
func (o BuildOptions) Fingerprint() string {
	o = o.withDefaults()
	devs := make([]string, len(o.NIRDevices))
	for i, d := range o.NIRDevices {
		devs[i] = d.String()
	}
	sort.Strings(devs)
	disabled := append([]string(nil), o.DisablePasses...)
	sort.Strings(disabled)
	return fmt.Sprintf("opt=%d nir=%t devices=[%s] soc=%q partition={merge=%t min=%d} disabled=[%s]",
		o.OptLevel, o.UseNIR, strings.Join(devs, ","), o.SoC.Name,
		o.Partition.MergeRegions, o.Partition.MinRegionSize,
		strings.Join(disabled, ","))
}

// ArtifactKey derives the content address of the library Build(mod, opts)
// would produce: a hex SHA-256 over the canonical module encoding, the
// option fingerprint, and the tuning bytes. Every caller in the tree passes
// tuning as nil — no build reads tuning records — but the empty section is
// part of every key (import.golden pins the bytes, and benchmark/ calls this
// with nil), so dropping the parameter is a change to the benchmark too.
func ArtifactKey(mod *relay.Module, opts BuildOptions, tuning []byte) (string, error) {
	enc, err := EncodeModule(mod)
	if err != nil {
		return "", fmt.Errorf("runtime: artifact key: %w", err)
	}
	h := sha256.New()
	// Length-prefix each section so section boundaries cannot alias.
	var sect = func(b []byte) {
		binary.Write(h, binary.LittleEndian, uint64(len(b)))
		h.Write(b)
	}
	sect(enc)
	sect([]byte(opts.Fingerprint()))
	sect(tuning)
	return hex.EncodeToString(h.Sum(nil)), nil
}
