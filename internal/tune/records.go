// Package tune is the record store of the placement search: nptune -pipeline
// runs internal/pipeline.SearchSchedule, the simulated-cost search over the
// showcase pipeline's device assignments (the paper's §5), and persists the
// chosen assignment as a placement record in a JSON-lines file. The
// convolution strategy is not tuned: topi's im2colPays is its one rule.
package tune

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// SchemaVersion is the record schema this build reads and writes. Bump it
// when the record layout changes incompatibly; loaders reject mismatched
// files with a re-run diagnostic instead of silently misreading them.
const SchemaVersion = 2

// KindPlacement is the kind of a per-stage device assignment record, the one
// kind this build reads.
const KindPlacement = "placement"

// Record is one line of a record file.
type Record struct {
	Schema int    `json:"schema"`
	Kind   string `json:"kind"`
	// Task names the searched pipeline: "pipeline|<name>".
	Task string `json:"task"`
	// Choice maps stage name → chosen target.
	Choice map[string]string `json:"choice,omitempty"`
	// CostNS is the simulated cost of the chosen assignment, in ns.
	CostNS int64  `json:"cost_ns"`
	Model  string `json:"model,omitempty"`
}

// key is the merge identity of a record.
func (r Record) key() string { return r.Kind + "\x00" + r.Task }

// Validate checks one record's schema and shape.
func (r Record) Validate() error {
	if r.Schema != SchemaVersion {
		return fmt.Errorf("tune: record schema v%d, this build reads v%d — re-run nptune to regenerate the file", r.Schema, SchemaVersion)
	}
	if r.Kind != KindPlacement {
		return fmt.Errorf("tune: record kind %q, this build reads only %q records", r.Kind, KindPlacement)
	}
	if !strings.HasPrefix(r.Task, "pipeline|") {
		return fmt.Errorf("tune: placement record task %q (want pipeline|<name>)", r.Task)
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
// lexicographically smaller serialized choice, so merging is deterministic
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
	return a.Choices() < b.Choices()
}

// Choices renders the choice as sorted "stage=target" pairs, joined by
// spaces: the merge's tiebreak and nptune -show's column.
func (r Record) Choices() string {
	pairs := make([]string, 0, len(r.Choice))
	for s, t := range r.Choice {
		pairs = append(pairs, s+"="+t)
	}
	sort.Strings(pairs)
	return strings.Join(pairs, " ")
}
