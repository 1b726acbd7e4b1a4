package topi

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/parallel"
	"repro/internal/relay"
	"repro/internal/tensor"
)

// BenchmarkBinaryBroadcast times the float multiply and add against a
// per-channel vector — the batch-norm scale and shift shapes of the
// anti-spoofing model — and against a scalar, into a planned destination,
// at one and two workers. Run it with
//
//	go test ./internal/topi -run '^$' -bench BinaryBroadcast -benchtime 20000x
func BenchmarkBinaryBroadcast(b *testing.B) {
	defer parallel.SetMaxWorkers(parallel.MaxWorkers())
	rng := rand.New(rand.NewSource(83))
	cases := []struct{ x, v tensor.Shape }{
		{tensor.Shape{1, 32, 32, 8}, tensor.Shape{8}},
		{tensor.Shape{1, 16, 16, 12}, tensor.Shape{12}},
		{tensor.Shape{1, 16, 16, 24}, tensor.Shape{24}},
		{tensor.Shape{1, 32, 32, 8}, tensor.Shape{}},
	}
	for _, c := range cases {
		args := []*tensor.Tensor{drawF32(rng, c.x), drawF32(rng, c.v)}
		outTy := &relay.TensorType{Shape: c.x, DType: tensor.Float32}
		dst := tensor.New(tensor.Float32, c.x)
		for _, op := range []string{"multiply", "add"} {
			for _, workers := range []int{1, 2} {
				b.Run(fmt.Sprintf("%s/%v_%v/w%d", op, c.x, c.v, workers), func(b *testing.B) {
					parallel.SetMaxWorkers(workers)
					l := prepared(b, op, args, nil, outTy)
					for i := 0; i < b.N; i++ {
						if err := l.Run(args, dst); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}
