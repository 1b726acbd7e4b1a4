package main

import (
	"bytes"
	"encoding/json"
	"strconv"
)

// rng is splitmix64: the benchmark's own generator, so that workload inputs
// depend on -seed alone and not on any package under test.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed} }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// perm returns a seeded permutation of 0..n-1 (Fisher-Yates).
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// poolSeeds is the fixed reference pool: every model is checked against
// interpreter outputs for request seeds 1..poolSeeds, whatever -seed is, so
// sim_ms_per_op is the same number on every run.
const poolSeeds = 32

// explicitElems is the tiny model's input size (32*32*3).
const explicitElems = 32 * 32 * 3

// request is one generated /v1/infer call.
type request struct {
	Model string
	// Class is "seed" (server synthesizes the input) or "explicit" (the body
	// carries the input tensor).
	Class string
	// Seed is the request seed, 1..poolSeeds; 0 for explicit requests.
	Seed uint64
	Body []byte
}

// explicitInput is the one fixed explicit input: explicitElems values in
// [0,1) with four decimals, so the JSON body is about 20 KB.
func explicitInput() []float64 {
	r := newRNG(0xE8911C17)
	out := make([]float64, explicitElems)
	for i := range out {
		out[i] = float64(r.intn(10000)) / 10000
	}
	return out
}

func seedBody(model string, seed uint64) []byte {
	return []byte(`{"model":` + strconv.Quote(model) + `,"seed":` + strconv.FormatUint(seed, 10) + `}`)
}

func explicitBody(model, input string, data []float64) []byte {
	var buf bytes.Buffer
	buf.WriteString(`{"model":` + strconv.Quote(model) + `,"inputs":{` + strconv.Quote(input) + `:`)
	js, _ := json.Marshal(data) // []float64 cannot fail to marshal
	buf.Write(js)
	buf.WriteString(`}}`)
	return buf.Bytes()
}

// genRequests builds one client's request sequence of n requests. Models are
// drawn in seeded order but in balanced blocks (every block of len(models)
// requests holds each model once), so two seeds differ in order and request
// seeds, never in mix: the work per window stays comparable across seeds.
// When explicit is non-nil every other request is the explicit-input class,
// starting with it when explicitFirst is set (client 1 starts opposite to
// client 0, so the two classes stay balanced across clients too).
func genRequests(r *rng, models []string, n int, explicit func(model string) []byte, explicitFirst bool) []request {
	out := make([]request, 0, n)
	for len(out) < n {
		for _, mi := range r.perm(len(models)) {
			if len(out) == n {
				break
			}
			m := models[mi]
			if explicit != nil && (len(out)%2 == 0) == explicitFirst {
				out = append(out, request{Model: m, Class: "explicit", Body: explicit(m)})
				continue
			}
			seed := uint64(1 + r.intn(poolSeeds))
			out = append(out, request{Model: m, Class: "seed", Seed: seed, Body: seedBody(m, seed)})
		}
	}
	return out
}
