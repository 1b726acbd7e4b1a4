// Package tune is the profile-guided autotuner: it extracts tunable kernel
// tasks from compiled modules, measures candidate configurations in-process
// against real tensors, and persists the winners as tuning records that the
// topi dispatch layer consults at kernel-launch time (topi/tuning.go). The
// same record store carries device-placement decisions from the simulated-
// cost pipeline search (internal/pipeline.SearchSchedule). TVM's core result
// is that measured-cost search beats hand-picked schedule defaults; this
// package closes that loop for the Go kernels, under the repository's
// standing invariant that every knob preserves bitwise-identical outputs.
// The one kernel knob is the convolution strategy (topi.KernelConfig).
package tune

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/topi"
)

// SchemaVersion is the tuning-record schema this build reads and writes.
// Bump it when the record or config layout changes incompatibly; loaders
// reject mismatched files with a re-tune diagnostic instead of silently
// misreading knobs.
// Version 2: a kernel config is the convolution strategy alone.
const SchemaVersion = 2

// Record kinds.
const (
	KindKernel    = "kernel"    // per-task convolution strategy
	KindPlacement = "placement" // per-stage device assignment
)

// Config is the serialized form of topi.KernelConfig (stable JSON field
// names, independent of the in-memory struct).
type Config struct {
	ConvStrategy string `json:"conv,omitempty"`
}

// Kernel converts to the dispatch-table form.
func (c Config) Kernel() topi.KernelConfig {
	return topi.KernelConfig{ConvStrategy: c.ConvStrategy}
}

// FromKernel converts a dispatch-table config to the serialized form.
func FromKernel(k topi.KernelConfig) Config {
	return Config{ConvStrategy: k.ConvStrategy}
}

// Record is one line of a tuning-record file.
type Record struct {
	Schema int    `json:"schema"`
	Kind   string `json:"kind"`
	// Task is the canonical task signature: topi.TaskKey.String() for
	// kernel records, "pipeline|<name>" for placement records.
	Task   string `json:"task"`
	Config Config `json:"config,omitempty"`
	// Choice maps stage name → chosen target for placement records.
	Choice map[string]string `json:"choice,omitempty"`
	// CostNS is the measured (kernel, wall ns) or simulated (placement,
	// simulated ns) cost of the winning configuration; DefaultNS the cost of
	// the untuned default, for audit.
	CostNS    int64  `json:"cost_ns"`
	DefaultNS int64  `json:"default_ns,omitempty"`
	Model     string `json:"model,omitempty"`
}

// key is the merge identity of a record.
func (r Record) key() string { return r.Kind + "\x00" + r.Task }

// Validate checks one record's schema and shape.
func (r Record) Validate() error {
	if r.Schema != SchemaVersion {
		return fmt.Errorf("tune: record schema v%d, this build reads v%d — re-run nptune to regenerate the file", r.Schema, SchemaVersion)
	}
	switch r.Kind {
	case KindKernel:
		key, err := topi.ParseTaskKey(r.Task)
		if err != nil {
			return fmt.Errorf("tune: kernel record: %w", err)
		}
		if key.Op != "nn.conv2d" && key.Op != "qnn.conv2d" {
			return fmt.Errorf("tune: kernel record %q is not a convolution task", r.Task)
		}
		if c := r.Config.ConvStrategy; c != topi.ConvIm2col && c != topi.ConvDirect {
			return fmt.Errorf("tune: kernel record %q has conv strategy %q (want %s or %s)", r.Task, c, topi.ConvIm2col, topi.ConvDirect)
		}
	case KindPlacement:
		if !strings.HasPrefix(r.Task, "pipeline|") {
			return fmt.Errorf("tune: placement record task %q (want pipeline|<name>)", r.Task)
		}
	default:
		return fmt.Errorf("tune: unknown record kind %q", r.Kind)
	}
	if r.CostNS < 0 {
		return fmt.Errorf("tune: record %q has negative cost %d", r.Task, r.CostNS)
	}
	return nil
}

// WriteRecords writes records as deterministic JSON lines: sorted by
// (kind, task), one canonical JSON object per line, so re-tuning with
// identical results produces a byte-identical file (stable diffs, cacheable
// artifacts).
func WriteRecords(path string, recs []Record) error {
	b, err := encodeRecords(recs)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// encodeRecords renders the bytes WriteRecords writes.
func encodeRecords(recs []Record) ([]byte, error) {
	sorted := append([]Record(nil), recs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].key() < sorted[j].key() })
	var b bytes.Buffer
	for _, r := range sorted {
		if err := r.Validate(); err != nil {
			return nil, err
		}
		line, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	return b.Bytes(), nil
}

// CheckFile is the audit nptune -check runs on a record file against the
// tasks of one model, and it fails only on what is deterministic: the file
// must load, every kernel record must name one of tasks (as Tasks extracts
// them), and writing the loaded records back must reproduce the file byte
// for byte. It returns the file's dispatch table; whether the records change
// any decision is the search's business, not the file's.
func CheckFile(path string, tasks []topi.TaskKey) (*topi.TuningTable, error) {
	want, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	recs, err := decodeRecords(path, want)
	if err != nil {
		return nil, err
	}
	known := make(map[string]bool, len(tasks))
	for _, task := range tasks {
		known[task.String()] = true
	}
	for _, r := range recs {
		if r.Kind == KindKernel && !known[r.Task] {
			return nil, fmt.Errorf("tune: %s: kernel record %s is not a task of the model", path, r.Task)
		}
	}
	got, err := encodeRecords(recs)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(got, want) {
		return nil, fmt.Errorf("tune: %s: writing its %d record(s) back does not reproduce the file (WriteRecords sorts and re-encodes)", path, len(recs))
	}
	return BuildTable(recs)
}

// LoadRecords reads a record file, validating every line. A schema-version
// mismatch anywhere in the file fails the whole load with a diagnostic
// naming both versions.
func LoadRecords(path string) ([]Record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeRecords(path, b)
}

// decodeRecords parses the bytes of a record file named path (for
// diagnostics): one JSON record a line, blank lines skipped, every record
// validated. It returns an error or records that all pass Validate.
func decodeRecords(path string, b []byte) ([]Record, error) {
	var recs []Record
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var r Record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("tune: %s:%d: %w", path, lineNo, err)
		}
		if err := r.Validate(); err != nil {
			return nil, fmt.Errorf("%w (%s:%d)", err, path, lineNo)
		}
		recs = append(recs, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("tune: reading %s: %w", path, err)
	}
	return recs, nil
}

// Merge combines record sets: for records of the same (kind, task) the
// lower-cost entry wins; an exact cost tie breaks toward the
// lexicographically smaller serialized config, so merging is deterministic
// and order-independent. The result is sorted by (kind, task).
func Merge(sets ...[]Record) []Record {
	best := map[string]Record{}
	for _, set := range sets {
		for _, r := range set {
			cur, ok := best[r.key()]
			if !ok || recordWins(r, cur) {
				best[r.key()] = r
			}
		}
	}
	out := make([]Record, 0, len(best))
	for _, r := range best {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key() < out[j].key() })
	return out
}

// recordWins reports whether a should replace b in a merge.
func recordWins(a, b Record) bool {
	if a.CostNS != b.CostNS {
		return a.CostNS < b.CostNS
	}
	return a.tieKey() < b.tieKey()
}

func (r Record) tieKey() string {
	if r.Kind == KindPlacement {
		keys := make([]string, 0, len(r.Choice))
		for s, t := range r.Choice {
			keys = append(keys, s+"="+t)
		}
		sort.Strings(keys)
		return strings.Join(keys, ",")
	}
	return r.Config.Kernel().String()
}

// BuildTable assembles the kernel records into a dispatch table for
// topi.SetTuning. Placement records are skipped (they configure the
// pipeline scheduler, not kernel dispatch).
func BuildTable(recs []Record) (*topi.TuningTable, error) {
	t := topi.NewTuningTable()
	for _, r := range recs {
		if r.Kind != KindKernel {
			continue
		}
		key, err := topi.ParseTaskKey(r.Task)
		if err != nil {
			return nil, err
		}
		t.Set(key, r.Config.Kernel())
	}
	return t, nil
}

// LoadTable loads a record file and builds its kernel dispatch table. The
// second return is the total record count (including placement records),
// for reporting.
func LoadTable(path string) (*topi.TuningTable, int, error) {
	recs, err := LoadRecords(path)
	if err != nil {
		return nil, 0, err
	}
	t, err := BuildTable(recs)
	if err != nil {
		return nil, 0, err
	}
	return t, len(recs), nil
}
