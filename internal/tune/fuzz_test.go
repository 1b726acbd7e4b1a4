package tune

import (
	"testing"

	"repro/internal/topi"
)

// FuzzRecords feeds the record decoder arbitrary bytes, seeded with a file
// WriteRecords produced: it must return an error or records that each pass
// Validate — and so re-encode — and never panic.
func FuzzRecords(f *testing.F) {
	file, err := encodeRecords([]Record{
		kernelRecord("nn.conv2d|d=1x8x8x3|w=4x3x3x3|s=1x1|l=1x1|p=1,1,1,1|g=1|float32", "emotion",
			Config{ConvStrategy: topi.ConvDirect}, 1200, 1500),
		kernelRecord("qnn.conv2d|d=1x8x8x4|w=6x3x3x4|s=2x2|l=1x1|p=1,1,1,1|g=1|uint8", "ssd",
			Config{ConvStrategy: topi.ConvIm2col}, 900, 1000),
		{Schema: SchemaVersion, Kind: KindPlacement, Task: "pipeline|showcase",
			Choice: map[string]string{"detect": "np-apu", "spoof": "np-cpu"}, CostNS: 9000},
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
