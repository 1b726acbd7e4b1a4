package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/models"
	"repro/internal/race"
	"repro/internal/relay"
	"repro/internal/runtime"
	"repro/internal/serve"
	"repro/internal/soc"
)

func liteModules(t *testing.T) map[string]*relay.Module {
	t.Helper()
	mods := map[string]*relay.Module{}
	for _, spec := range models.Showcase() {
		mod, err := spec.Build(models.SizeLite)
		if err != nil {
			t.Fatal(err)
		}
		mods[spec.Name] = mod
	}
	tiny, err := buildTiny()
	if err != nil {
		t.Fatal(err)
	}
	mods["tiny"] = tiny
	return mods
}

// The traced pass attributes runtime.Build's time to stages by replaying it;
// that is only honest while the replay builds the same library.
func TestStagedBuildEqualsRuntimeBuild(t *testing.T) {
	for name, mod := range liteModules(t) {
		for _, w := range []*compileWorkload{{byoc: true}, {}} {
			opts := w.buildOptions()
			real, err := runtime.Build(mod, opts)
			if err != nil {
				t.Fatal(err)
			}
			s := &stager{ms: map[string]float64{}}
			staged, err := s.build(mod, opts)
			if err != nil {
				t.Fatalf("%s byoc=%v: %v", name, w.byoc, err)
			}
			prof, err := staged.Estimate()
			if err != nil {
				t.Fatal(err)
			}
			var art bytes.Buffer
			if err := staged.ExportLibrary(&art); err != nil {
				t.Fatal(err)
			}
			if err := sameLib(real, staged, simTotal(prof), art.Bytes()); err != nil {
				t.Errorf("%s byoc=%v: %v", name, w.byoc, err)
			}
			if w.byoc != (s.ms["nir.partition_ms"] > 0) {
				t.Errorf("%s byoc=%v: nir.partition_ms = %v", name, w.byoc, s.ms["nir.partition_ms"])
			}
			if err := sameAsInterpreter(staged, real, mod, 3); err != nil {
				t.Errorf("%s byoc=%v: staged library %v", name, w.byoc, err)
			}
		}

		realCM, err := runtime.BuildNeuroPilotOnly(mod, nil, nirDevices)
		cm, ok, serr := (&stager{ms: map[string]float64{}}).neuroPilotOnly(mod)
		if serr != nil {
			t.Fatalf("%s NP-only: %v", name, serr)
		}
		if ok != (err == nil) || (err != nil && !runtime.IsNoStatistics(err)) {
			t.Fatalf("%s NP-only: staged ok=%v, BuildNeuroPilotOnly err=%v", name, ok, err)
		}
		if ok {
			p1, p2 := soc.NewProfile(), soc.NewProfile()
			cm.Estimate(p1)
			realCM.Estimate(p2)
			if !sameSim(simTotal(p1), simTotal(p2)) {
				t.Errorf("%s NP-only: staged sim-ms %v, real %v", name, simTotal(p1), simTotal(p2))
			}
		}
	}
}

// A wrong reply must fail its op: the checker is not allowed to be lenient.
func TestReferenceRejectsWrongOutputs(t *testing.T) {
	mod, err := buildTiny()
	if err != nil {
		t.Fatal(err)
	}
	lib, err := runtime.Build(mod, byocOptions)
	if err != nil {
		t.Fatal(err)
	}
	m, err := newServed("tiny", mod, lib, explicitInput())
	if err != nil {
		t.Fatal(err)
	}
	w := &serveWorkload{models: map[string]*served{"tiny": m}}
	reply := func(seed uint64, bump float64) []byte {
		ref := m.refs[seed]
		data := append([]float64(nil), ref.Outputs[0]...)
		data[0] += bump
		body, err := jsonReply(data, ref.SimMs)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	if err := w.verify(request{Model: "tiny", Seed: 4}, reply(4, 0)); err != nil {
		t.Errorf("the reference's own outputs were rejected: %v", err)
	}
	if err := w.verify(request{Model: "tiny", Seed: 4}, reply(4, 1e-12)); err == nil {
		t.Error("a reply off by 1e-12 passed the bitwise check")
	}
	if err := w.verify(request{Model: "tiny", Seed: 4}, reply(5, 0)); err == nil {
		t.Error("another seed's outputs passed")
	}
	if err := w.verify(request{Model: "tiny", Seed: 0}, reply(0, 0)); err != nil {
		t.Errorf("the explicit input's reference was rejected: %v", err)
	}
}

// Each workload runs a half-second window in smoke mode and must finish with
// every op verified; set-up dominates, and the whole test stays under ten
// seconds. The traced pass of the two cheapest workloads runs too, so the
// layer code cannot rot unseen.
func TestSmokeEveryWorkload(t *testing.T) {
	if race.Enabled {
		t.Skip("the workloads are CPU-bound; ten times slower under the race detector")
	}
	dir := t.TempDir()
	cfg := config{Seed: 5, Seconds: 0.5, Smoke: true,
		WorkDir: filepath.Join(dir, "work"), OutDir: filepath.Join(dir, "out")}
	sim := map[string]float64{}
	for _, w := range workloads {
		rep, err := runOnce(w.Name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d %v", w.Name, rep.Correct, rep.Attempted, rep.Failed, rep.Errors)
		}
		// The untraced report carries the exact sim-ms too.
		if sim[w.Name] = rep.Metrics[rep.SimMetric]; sim[w.Name] <= 0 {
			t.Errorf("%s: %s = %v in the untraced report", w.Name, rep.SimMetric, sim[w.Name])
		}
		for _, m := range endToEnd {
			if v, ok := rep.Metrics[m.Name]; !ok || v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.Name, m.Name, v)
			}
		}
	}
	cfg.Trace = true
	for _, name := range []string{"fleet_light", "serve_light"} {
		rep, err := runOnce(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Correct || rep.Failed != 0 {
			t.Errorf("%s traced: correct=%v failed=%d %v", name, rep.Correct, rep.Failed, rep.Errors)
		}
		for _, m := range perLayer {
			if _, ok := rep.Metrics[m.Name]; !ok {
				t.Errorf("%s traced: per-layer metric %s missing", name, m.Name)
			}
		}
		if got := rep.Metrics[rep.SimMetric]; got != sim[name] {
			t.Errorf("%s: %s = %v traced, %v untraced", name, rep.SimMetric, got, sim[name])
		}
		if (rep.Metrics["fleet.route_ms"] != 0) != (name == "fleet_light") {
			t.Errorf("%s: fleet.route_ms = %v", name, rep.Metrics["fleet.route_ms"])
		}
		if _, err := os.Stat(rep.TraceFile); err != nil {
			t.Errorf("%s: trace file: %v", name, err)
		}
	}
}

func jsonReply(data []float64, simMs float64) ([]byte, error) {
	return json.Marshal(serve.InferResponse{
		Model:   "tiny",
		Outputs: []serve.TensorJSON{{Shape: []int{1, len(data)}, DType: "float32", Data: data}},
		SimMs:   simMs,
	})
}
