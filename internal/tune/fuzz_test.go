package tune

import "testing"

// FuzzRecords feeds the record decoder arbitrary bytes, seeded with a file
// WriteRecords produced, an empty file and a kernel line of schema v1: it
// must return an error or records that each pass Validate — and so
// re-encode — and never panic.
func FuzzRecords(f *testing.F) {
	file, err := encodeRecords([]Record{
		placementRecord("pipeline|showcase", "showcase", map[string]string{"detect": "np-apu", "spoof": "np-cpu"}, 9000),
		placementRecord("pipeline|emotion", "emotion", map[string]string{"classify": "np-apu"}, 1200),
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(file)
	f.Add([]byte{})
	f.Add([]byte(`{"schema":1,"kind":"kernel","task":"nn.conv2d|d=1x8x8x3|w=4x3x3x3|s=1x1|l=1x1|p=1,1,1,1|g=1|float32","config":{"mc":128},"cost_ns":1}` + "\n"))
	f.Fuzz(func(t *testing.T, b []byte) {
		recs, err := decodeRecords("fuzz.json", b)
		if err != nil {
			return
		}
		for _, r := range recs {
			if err := r.Validate(); err != nil {
				t.Fatalf("decoded a record that fails Validate: %v", err)
			}
		}
		if _, err := encodeRecords(recs); err != nil {
			t.Fatalf("decoded records do not re-encode: %v", err)
		}
	})
}
