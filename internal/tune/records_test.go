package tune

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/topi"
)

func testTask(t *testing.T) topi.TaskKey {
	t.Helper()
	key, err := topi.ParseTaskKey("nn.conv2d|d=1x8x8x3|w=4x3x3x3|s=1x1|l=1x1|p=1,1,1,1|g=1|float32")
	if err != nil {
		t.Fatal(err)
	}
	return key
}

func kernelRecord(task, model string, cfg Config, cost, def int64) Record {
	return Record{Schema: SchemaVersion, Kind: KindKernel, Task: task,
		Config: cfg, CostNS: cost, DefaultNS: def, Model: model}
}

func TestRecordRoundTrip(t *testing.T) {
	task := testTask(t)
	recs := []Record{
		kernelRecord(task.String(), "emotion", Config{ConvStrategy: topi.ConvIm2col}, 1200, 1500),
		{Schema: SchemaVersion, Kind: KindPlacement, Task: "pipeline|showcase",
			Choice: map[string]string{"detect": "np-apu", "spoof": "np-cpu"}, CostNS: 9000},
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
	// Sorted by (kind, task): kernel before placement.
	if got[0].Kind != KindKernel || got[0].Task != task.String() {
		t.Fatalf("first record = %+v", got[0])
	}
	if got[0].Config != recs[0].Config || got[0].CostNS != 1200 || got[0].DefaultNS != 1500 || got[0].Model != "emotion" {
		t.Fatalf("kernel record did not round-trip: %+v", got[0])
	}
	if got[1].Choice["detect"] != "np-apu" || got[1].Choice["spoof"] != "np-cpu" {
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

	// The dispatch table sees exactly the kernel record.
	tbl, err := BuildTable(got)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 1 {
		t.Fatalf("table has %d entries, want 1", tbl.Len())
	}
	cfg, ok := tbl.Lookup(task)
	if !ok || cfg.ConvStrategy != topi.ConvIm2col {
		t.Fatalf("table lookup = %+v, %v", cfg, ok)
	}
}

func TestSchemaMismatchRejected(t *testing.T) {
	task := testTask(t)
	r := kernelRecord(task.String(), "m", Config{ConvStrategy: topi.ConvDirect}, 10, 20)
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
// read as a strategy-only record with its blocking and worker knobs
// silently dropped.
func TestSchemaV1FileRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v1.json")
	v1 := `{"schema":1,"kind":"kernel","task":"` + testTask(t).String() +
		`","config":{"conv":"im2col","mc":128,"nc":4,"workers":2,"grain":2},"cost_ns":7589,"default_ns":12294,"model":"anti-spoofing"}` + "\n"
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

func TestLoadRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	for _, line := range []string{
		`{"schema":2,"kind":"kernel","task":"bogus","config":{"conv":"direct"},"cost_ns":1}`,
		`{"schema":2,"kind":"kernel","task":"nn.dense|d=1x1x1x64|w=10x1x1x64|s=1x1|l=1x1|p=0,0,0,0|g=1|float32","config":{"conv":"direct"},"cost_ns":1}`,
		`{"schema":2,"kind":"kernel","task":"` + testTask(t).String() + `","config":{"conv":"winograd"},"cost_ns":1}`,
		`{"schema":2,"kind":"kernel","task":"` + testTask(t).String() + `","cost_ns":1}`,
	} {
		os.WriteFile(path, []byte(line+"\n"), 0o644)
		if _, err := LoadRecords(path); err == nil {
			t.Errorf("accepted %s", line)
		}
	}
	os.WriteFile(path, []byte("not json\n"), 0o644)
	if _, err := LoadRecords(path); err == nil || !strings.Contains(err.Error(), "bad.json:1") {
		t.Fatalf("want line-numbered JSON error, got %v", err)
	}
}

func TestMergeLowerCostWins(t *testing.T) {
	task := testTask(t)
	a := kernelRecord(task.String(), "a", Config{ConvStrategy: topi.ConvDirect}, 1500, 2000)
	b := kernelRecord(task.String(), "b", Config{ConvStrategy: topi.ConvIm2col}, 1200, 2000)
	other := kernelRecord("qnn.conv2d|d=1x8x8x4|w=6x3x3x4|s=2x2|l=1x1|p=1,1,1,1|g=1|uint8", "a", Config{ConvStrategy: topi.ConvDirect}, 900, 1000)

	m1 := Merge([]Record{a, other}, []Record{b})
	m2 := Merge([]Record{b}, []Record{other, a})
	if len(m1) != 2 || len(m2) != 2 {
		t.Fatalf("merge sizes %d, %d; want 2", len(m1), len(m2))
	}
	for i := range m1 {
		if m1[i].key() != m2[i].key() || m1[i].CostNS != m2[i].CostNS || m1[i].Config != m2[i].Config {
			t.Fatalf("merge not order-independent: %+v vs %+v", m1[i], m2[i])
		}
	}
	var got Record
	for _, r := range m1 {
		if r.Task == task.String() {
			got = r
		}
	}
	if got.CostNS != 1200 || got.Config.ConvStrategy != topi.ConvIm2col {
		t.Fatalf("merge kept %+v, want the 1200ns conv=im2col record", got)
	}

	// Exact cost tie: deterministic winner via the serialized-config tie key.
	c := kernelRecord(task.String(), "c", Config{ConvStrategy: topi.ConvDirect}, 1200, 2000)
	t1 := Merge([]Record{b}, []Record{c})
	t2 := Merge([]Record{c}, []Record{b})
	if t1[0].Config != t2[0].Config || t1[0].Model != t2[0].Model {
		t.Fatalf("tie not deterministic: %+v vs %+v", t1[0], t2[0])
	}
}

// TestCheckFile is nptune -check's gate, row by row: it fails on what is
// deterministic about a record file and on nothing else.
func TestCheckFile(t *testing.T) {
	tasks := Tasks(buildTuneModule(t))
	im2col := Config{ConvStrategy: topi.ConvIm2col}
	own := kernelRecord(tasks[0].String(), "m", Config{ConvStrategy: topi.ConvDirect}, 10, 20)
	cases := []struct {
		name string
		body func(path string) error
		want string // "" passes
	}{
		{"records of the model's tasks", func(path string) error {
			return WriteRecords(path, []Record{own})
		}, ""},
		{"no records: the search kept every default", func(path string) error {
			return WriteRecords(path, nil)
		}, ""},
		{"a record of another model's task", func(path string) error {
			return WriteRecords(path, []Record{kernelRecord(testTask(t).String(), "m", im2col, 10, 20)})
		}, "is not a task of the model"},
		{"records out of order", func(path string) error {
			var lines []string
			for _, task := range tasks {
				line, _ := json.Marshal(kernelRecord(task.String(), "m", im2col, 10, 20))
				lines = append([]string{string(line)}, lines...)
			}
			return os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644)
		}, "does not reproduce the file"},
		{"unparseable", func(path string) error {
			return os.WriteFile(path, []byte("not json\n"), 0o644)
		}, "invalid character"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "records.json")
			if err := tc.body(path); err != nil {
				t.Fatal(err)
			}
			_, err := CheckFile(path, tasks)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("refused: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("err = %v, want one containing %q", err, tc.want)
			}
		})
	}
}
