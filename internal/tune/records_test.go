package tune

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func placementRecord(task, model string, choice map[string]string, cost int64) Record {
	return Record{Schema: SchemaVersion, Kind: KindPlacement, Task: task, Choice: choice, CostNS: cost, Model: model}
}

func TestRecordRoundTrip(t *testing.T) {
	recs := []Record{
		placementRecord("pipeline|showcase", "showcase", map[string]string{"detect": "np-apu", "spoof": "np-cpu"}, 9000),
		placementRecord("pipeline|emotion", "emotion", map[string]string{"classify": "np-apu"}, 1200),
	}
	path := filepath.Join(t.TempDir(), "records.json")
	if err := WriteRecords(path, recs); err != nil {
		t.Fatal(err)
	}
	got, err := LoadRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("loaded %d records, want 2", len(got))
	}
	// Sorted by (kind, task): emotion before showcase.
	if got[0].Task != "pipeline|emotion" || got[0].CostNS != 1200 || got[0].Model != "emotion" || got[0].Choice["classify"] != "np-apu" {
		t.Fatalf("first record = %+v", got[0])
	}
	if got[1].Choice["detect"] != "np-apu" || got[1].Choice["spoof"] != "np-cpu" || got[1].CostNS != 9000 {
		t.Fatalf("placement choice did not round-trip: %+v", got[1])
	}

	// Determinism: writing the loaded records reproduces the file bytes.
	path2 := filepath.Join(t.TempDir(), "records2.json")
	if err := WriteRecords(path2, got); err != nil {
		t.Fatal(err)
	}
	b1, _ := os.ReadFile(path)
	b2, _ := os.ReadFile(path2)
	if string(b1) != string(b2) {
		t.Fatalf("rewrite not byte-identical:\n%s\nvs\n%s", b1, b2)
	}
}

func TestSchemaMismatchRejected(t *testing.T) {
	r := placementRecord("pipeline|showcase", "showcase", map[string]string{"detect": "np-apu"}, 10)
	r.Schema = SchemaVersion + 1
	path := filepath.Join(t.TempDir(), "new.json")
	// Write the stale-schema line by hand; WriteRecords itself refuses it.
	if err := WriteRecords(path, []Record{r}); err == nil {
		t.Fatal("WriteRecords accepted a wrong-schema record")
	}
	line, _ := json.Marshal(r)
	if err := os.WriteFile(path, append(line, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadRecords(path)
	if err == nil {
		t.Fatal("LoadRecords accepted a schema-mismatched file")
	}
	msg := err.Error()
	for _, want := range []string{fmt.Sprintf("schema v%d", SchemaVersion+1), fmt.Sprintf("reads v%d", SchemaVersion), "re-run nptune", "new.json:1"} {
		if !strings.Contains(msg, want) {
			t.Errorf("diagnostic %q missing %q", msg, want)
		}
	}
}

// TestSchemaV1FileRejected: a file written before the knobs other than the
// conv strategy were removed is refused with the re-run diagnostic, not
// read with its knobs silently dropped.
func TestSchemaV1FileRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v1.json")
	v1 := `{"schema":1,"kind":"kernel","task":"nn.conv2d|d=1x8x8x3|w=4x3x3x3|s=1x1|l=1x1|p=1,1,1,1|g=1|float32",` +
		`"config":{"conv":"im2col","mc":128,"nc":4,"workers":2,"grain":2},"cost_ns":7589,"default_ns":12294,"model":"anti-spoofing"}` + "\n"
	if err := os.WriteFile(path, []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadRecords(path)
	if err == nil {
		t.Fatal("LoadRecords accepted a schema-v1 file")
	}
	for _, want := range []string{"schema v1", "reads v2", "re-run nptune", "v1.json:1"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("diagnostic %q missing %q", err, want)
		}
	}
}

// TestLoadRejectsGarbage: kernel records, which the convolution strategy
// rule replaced, are refused with the kind named, as are placement records
// of the wrong task form or cost, and lines that are not JSON.
func TestLoadRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	for line, want := range map[string]string{
		`{"schema":2,"kind":"kernel","task":"nn.conv2d|d=1x1x1x32|w=64x3x3x32|s=1x1|l=1x1|p=1,1,1,1|g=1|float32","config":{"conv":"direct"},"cost_ns":1}`: `record kind "kernel"`,
		`{"schema":2,"kind":"placement","task":"showcase","choice":{"detect":"np-apu"},"cost_ns":1}`:                                                      "want pipeline|<name>",
		`{"schema":2,"kind":"placement","task":"pipeline|showcase","choice":{"detect":"np-apu"},"cost_ns":-1}`:                                            "negative cost",
		`not json`: "bad.json:1",
	} {
		os.WriteFile(path, []byte(line+"\n"), 0o644)
		if _, err := LoadRecords(path); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want one containing %q", line, err, want)
		}
	}
}

func TestMergeLowerCostWins(t *testing.T) {
	a := placementRecord("pipeline|showcase", "a", map[string]string{"detect": "np-cpu"}, 1500)
	b := placementRecord("pipeline|showcase", "b", map[string]string{"detect": "np-apu"}, 1200)
	other := placementRecord("pipeline|emotion", "a", map[string]string{"classify": "np-apu"}, 900)

	m1 := Merge([]Record{a, other}, []Record{b})
	m2 := Merge([]Record{b}, []Record{other, a})
	if len(m1) != 2 || len(m2) != 2 {
		t.Fatalf("merge sizes %d, %d; want 2", len(m1), len(m2))
	}
	for i := range m1 {
		if m1[i].key() != m2[i].key() || m1[i].CostNS != m2[i].CostNS || m1[i].Choices() != m2[i].Choices() {
			t.Fatalf("merge not order-independent: %+v vs %+v", m1[i], m2[i])
		}
	}
	var got Record
	for _, r := range m1 {
		if r.Task == "pipeline|showcase" {
			got = r
		}
	}
	if got.CostNS != 1200 || got.Choice["detect"] != "np-apu" {
		t.Fatalf("merge kept %+v, want the 1200ns detect=np-apu record", got)
	}

	// Exact cost tie: deterministic winner via the serialized-choice tie key.
	c := placementRecord("pipeline|showcase", "c", map[string]string{"detect": "np-cpu"}, 1200)
	t1 := Merge([]Record{b}, []Record{c})
	t2 := Merge([]Record{c}, []Record{b})
	if t1[0].Choices() != t2[0].Choices() || t1[0].Model != t2[0].Model {
		t.Fatalf("tie not deterministic: %+v vs %+v", t1[0], t2[0])
	}
}
