package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/serve"
)

func flatten(reqs []request) []byte {
	var buf bytes.Buffer
	for _, r := range reqs {
		buf.WriteString(r.Model + "|" + r.Class + "|")
		buf.Write(r.Body)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

var trio = []string{"anti-spoofing", "emotion", "mobilenet ssd (quant)"}

func TestSameSeedSameRequests(t *testing.T) {
	explicit := func(m string) []byte { return explicitBody(m, "input_1", explicitInput()) }
	for _, ex := range []func(string) []byte{nil, explicit} {
		a := flatten(genRequests(newRNG(7), trio, 300, ex, false))
		b := flatten(genRequests(newRNG(7), trio, 300, ex, false))
		if !bytes.Equal(a, b) {
			t.Fatal("same seed produced different request sequences")
		}
		c := flatten(genRequests(newRNG(8), trio, 300, ex, false))
		if bytes.Equal(a, c) {
			t.Fatal("different seeds produced the same request sequence")
		}
	}
}

// Seeds may reorder requests but never change the mix: every block of
// len(models) requests holds each model once, and with explicit inputs the
// classes alternate.
func TestRequestMixIsSeedIndependent(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		reqs := genRequests(newRNG(seed), trio, 299, nil, false)
		if len(reqs) != 299 {
			t.Fatalf("got %d requests, want 299", len(reqs))
		}
		for i := 0; i+len(trio) <= len(reqs); i += len(trio) {
			seen := map[string]bool{}
			for _, r := range reqs[i : i+len(trio)] {
				seen[r.Model] = true
			}
			if len(seen) != len(trio) {
				t.Fatalf("seed %d: block at %d holds %v", seed, i, seen)
			}
		}
		for _, r := range reqs {
			if r.Class != "seed" || r.Seed < 1 || r.Seed > poolSeeds {
				t.Fatalf("seed %d: request %+v outside the reference pool", seed, r)
			}
		}
	}
	body := func(m string) []byte { return explicitBody(m, "x", []float64{0.5}) }
	for _, first := range []bool{false, true} {
		reqs := genRequests(newRNG(3), []string{"tiny"}, 100, body, first)
		for i, r := range reqs {
			wantExplicit := (i%2 == 0) == first
			if (r.Class == "explicit") != wantExplicit {
				t.Fatalf("explicitFirst=%v: request %d is %s", first, i, r.Class)
			}
		}
	}
}

// The generated bodies are what serve's /v1/infer decodes.
func TestBodiesDecodeAsInferRequests(t *testing.T) {
	var req serve.InferRequest
	if err := json.Unmarshal(seedBody(`mobilenet ssd (quant)`, 17), &req); err != nil {
		t.Fatal(err)
	}
	if req.Model != "mobilenet ssd (quant)" || req.Seed != 17 || len(req.Inputs) != 0 {
		t.Errorf("seed body decoded as %+v", req)
	}
	data := explicitInput()
	body := explicitBody("tiny", "input_1", data)
	req = serve.InferRequest{}
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	if got := req.Inputs["input_1"]; len(got) != explicitElems || got[5] != data[5] {
		t.Errorf("explicit body lost its input: %d values", len(got))
	}
	if len(body) < 18<<10 || len(body) > 26<<10 {
		t.Errorf("explicit body is %d bytes, want about 20 KB", len(body))
	}
	if !bytes.Equal(body, explicitBody("tiny", "input_1", explicitInput())) {
		t.Error("the explicit input is not fixed")
	}
}

func TestPermIsAPermutation(t *testing.T) {
	p := newRNG(99).perm(14)
	seen := make([]bool, 14)
	for _, i := range p {
		if i < 0 || i >= 14 || seen[i] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[i] = true
	}
	q := newRNG(99).perm(14)
	for i := range p {
		if p[i] != q[i] {
			t.Fatal("perm is not deterministic")
		}
	}
}
