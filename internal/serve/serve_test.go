package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/models"
	"repro/internal/runtime"
	"repro/internal/soc"
	"repro/internal/tensor"
)

// emotionLib builds the lite emotion zoo model on the TVM-only path (fully
// plannable, cheap enough to run many times under -race).
func emotionLib(t testing.TB) *runtime.Lib {
	t.Helper()
	m, err := models.BuildEmotion(models.SizeLite)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := runtime.Build(m, runtime.BuildOptions{OptLevel: 3})
	if err != nil {
		t.Fatal(err)
	}
	return lib
}

// byocLib builds the lite emotion model through the BYOC flow (external
// NeuroPilot regions → CPU+APU device set).
func byocLib(t testing.TB) *runtime.Lib {
	t.Helper()
	m, err := models.BuildEmotion(models.SizeLite)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := runtime.Build(m, runtime.BuildOptions{OptLevel: 3, UseNIR: true})
	if err != nil {
		t.Fatal(err)
	}
	return lib
}

// referenceOutputs runs one single-threaded inference per seed on a private
// GraphModule and returns detached outputs — the oracle the concurrent
// server must match bitwise.
func referenceOutputs(t testing.TB, lib *runtime.Lib, seeds []uint64) map[uint64][]*tensor.Tensor {
	t.Helper()
	gm := runtime.NewGraphModule(lib)
	name := gm.InputNames()[0]
	ref := map[uint64][]*tensor.Tensor{}
	for _, seed := range seeds {
		gm.SetInput(name, models.RandomInput(lib.Module, seed))
		if err := gm.Run(); err != nil {
			t.Fatal(err)
		}
		outs := make([]*tensor.Tensor, gm.NumOutputs())
		for i := range outs {
			o, err := gm.OutputCopy(i)
			if err != nil {
				t.Fatal(err)
			}
			outs[i] = o
		}
		ref[seed] = outs
	}
	return ref
}

// assertBitwise demands exact equality: same dtype, same shape, max abs
// diff of exactly zero.
func assertBitwise(t *testing.T, what string, got, want []*tensor.Tensor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d outputs, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i].DType != want[i].DType || !got[i].Shape.Equal(want[i].Shape) {
			t.Fatalf("%s: output %d type %s%v, want %s%v", what, i,
				got[i].DType, got[i].Shape, want[i].DType, want[i].Shape)
		}
		if d := tensor.MaxAbsDiff(got[i], want[i]); d != 0 {
			t.Fatalf("%s: output %d differs from single-threaded run (max abs diff %g)", what, i, d)
		}
	}
}

// TestConcurrentPoolBitwise is the acceptance test: 8 concurrent clients
// through a 2-instance pool, every response bitwise-identical to a
// single-threaded Run of the same input.
func TestConcurrentPoolBitwise(t *testing.T) {
	lib := emotionLib(t)
	const clients, perClient = 8, 3
	seeds := make([]uint64, 0, clients*perClient)
	for c := 0; c < clients; c++ {
		for j := 0; j < perClient; j++ {
			seeds = append(seeds, uint64(1+c*perClient+j))
		}
	}
	ref := referenceOutputs(t, lib, seeds)

	s := NewServer()
	if err := s.Register("emotion", lib, ModelOptions{Pool: 2, QueueDepth: 64}); err != nil {
		t.Fatal(err)
	}
	inName := runtime.NewGraphModule(lib).InputNames()[0]

	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j := 0; j < perClient; j++ {
				seed := uint64(1 + c*perClient + j)
				in := map[string]*tensor.Tensor{inName: models.RandomInput(lib.Module, seed)}
				res, err := s.Submit(context.Background(), "emotion", in)
				if err != nil {
					errCh <- fmt.Errorf("client %d seed %d: %w", c, seed, err)
					return
				}
				for i := range res.Outputs {
					if d := tensor.MaxAbsDiff(res.Outputs[i], ref[seed][i]); d != 0 {
						errCh <- fmt.Errorf("client %d seed %d output %d: max abs diff %g", c, seed, i, d)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	st := s.Stats()[0]
	if st.Completed != clients*perClient {
		t.Errorf("completed %d requests, want %d", st.Completed, clients*perClient)
	}
	if st.Rejected != 0 || st.Expired != 0 || st.Failed != 0 {
		t.Errorf("unexpected failures in stats: %+v", st)
	}
}

// TestDeadlineExpiresInQueue pins admission behavior (b): a request whose
// deadline passes while queued is answered with its context error and never
// executes.
func TestDeadlineExpiresInQueue(t *testing.T) {
	lib := emotionLib(t)
	s := NewServer()
	gateEntered := make(chan struct{}, 8)
	gateRelease := make(chan struct{})
	opts := ModelOptions{
		Pool:       1,
		QueueDepth: 8,
		Gate: func(int) {
			gateEntered <- struct{}{}
			<-gateRelease
		},
	}
	if err := s.Register("emotion", lib, opts); err != nil {
		t.Fatal(err)
	}
	inName := runtime.NewGraphModule(lib).InputNames()[0]
	submit := func(ctx context.Context, seed uint64) (*Result, error) {
		return s.Submit(ctx, "emotion",
			map[string]*tensor.Tensor{inName: models.RandomInput(lib.Module, seed)})
	}

	// First request occupies the single worker inside the gate.
	firstDone := make(chan error, 1)
	go func() {
		_, err := submit(context.Background(), 1)
		firstDone <- err
	}()
	<-gateEntered

	// Second request queues behind it with a deadline that expires in queue.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	secondDone := make(chan error, 1)
	go func() {
		_, err := submit(ctx, 2)
		secondDone <- err
	}()
	waitForAdmitted(t, s, 2) // definitely in the queue before the deadline
	<-ctx.Done()             // deadline passed while the request sat in the queue

	close(gateRelease)
	if err := <-firstDone; err != nil {
		t.Fatalf("gated request failed: %v", err)
	}
	err := <-secondDone
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued request: got %v, want context.DeadlineExceeded", err)
	}

	st := s.Stats()[0]
	if st.Completed != 1 {
		t.Errorf("completed %d, want 1 (the expired request must not execute)", st.Completed)
	}
	if st.Expired != 1 {
		t.Errorf("expired %d, want 1", st.Expired)
	}
}

// TestOverloadRejected pins admission behavior (c): once the queue is full,
// submissions fail fast with ErrOverloaded instead of blocking.
func TestOverloadRejected(t *testing.T) {
	lib := emotionLib(t)
	s := NewServer()
	gateEntered := make(chan struct{}, 8)
	gateRelease := make(chan struct{})
	opts := ModelOptions{
		Pool:       1,
		QueueDepth: 1,
		Gate: func(int) {
			gateEntered <- struct{}{}
			<-gateRelease
		},
	}
	if err := s.Register("emotion", lib, opts); err != nil {
		t.Fatal(err)
	}
	inName := runtime.NewGraphModule(lib).InputNames()[0]
	submit := func(seed uint64) (*Result, error) {
		return s.Submit(context.Background(), "emotion",
			map[string]*tensor.Tensor{inName: models.RandomInput(lib.Module, seed)})
	}

	// Request 1 is dequeued and held at the gate; request 2 fills the queue.
	results := make(chan error, 2)
	go func() { _, err := submit(1); results <- err }()
	<-gateEntered
	go func() { _, err := submit(2); results <- err }()
	waitForAdmitted(t, s, 2)

	// Queue full: request 3 must be rejected immediately.
	start := time.Now()
	_, err := submit(3)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("got %v, want ErrOverloaded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("rejection took %v; must not block", elapsed)
	}

	close(gateRelease)
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Errorf("admitted request failed: %v", err)
		}
	}
	st := s.Stats()[0]
	if st.Rejected != 1 {
		t.Errorf("rejected %d, want 1", st.Rejected)
	}
	if st.Completed != 2 {
		t.Errorf("completed %d, want 2", st.Completed)
	}
}

// waitForAdmitted polls stats until n requests were admitted (the submit
// goroutines race the observer, but admission counters are monotonic).
func waitForAdmitted(t *testing.T, s *Server, n uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s.Stats()[0].Admitted >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %d admitted requests", n)
}

// TestBatchingMatchesUnbatched pins the micro-batcher: coalesced requests
// produce per-request outputs identical to unbatched execution.
func TestBatchingMatchesUnbatched(t *testing.T) {
	lib := emotionLib(t)
	const n = 6
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = uint64(100 + i)
	}
	ref := referenceOutputs(t, lib, seeds)

	s := NewServer()
	gateEntered := make(chan struct{}, 8)
	gateRelease := make(chan struct{})
	var gateOnce sync.Once
	opts := ModelOptions{
		Pool:        1,
		QueueDepth:  16,
		MaxBatch:    n,
		BatchWindow: 50 * time.Millisecond,
		// The gate holds only the first (primer) batch, so the n test
		// requests pile up in the queue and coalesce into one batch.
		Gate: func(int) {
			gateOnce.Do(func() {
				gateEntered <- struct{}{}
				<-gateRelease
			})
		},
	}
	if err := s.Register("emotion", lib, opts); err != nil {
		t.Fatal(err)
	}
	inName := runtime.NewGraphModule(lib).InputNames()[0]

	primerDone := make(chan error, 1)
	go func() {
		_, err := s.Submit(context.Background(), "emotion",
			map[string]*tensor.Tensor{inName: models.RandomInput(lib.Module, 999)})
		primerDone <- err
	}()
	<-gateEntered

	type reply struct {
		seed uint64
		res  *Result
		err  error
	}
	replies := make(chan reply, n)
	for _, seed := range seeds {
		go func(seed uint64) {
			res, err := s.Submit(context.Background(), "emotion",
				map[string]*tensor.Tensor{inName: models.RandomInput(lib.Module, seed)})
			replies <- reply{seed, res, err}
		}(seed)
	}
	waitForAdmitted(t, s, n+1)
	close(gateRelease)
	if err := <-primerDone; err != nil {
		t.Fatal(err)
	}

	sawBatch := false
	for i := 0; i < n; i++ {
		r := <-replies
		if r.err != nil {
			t.Fatalf("seed %d: %v", r.seed, r.err)
		}
		assertBitwise(t, fmt.Sprintf("seed %d (batch of %d)", r.seed, r.res.BatchSize),
			r.res.Outputs, ref[r.seed])
		if r.res.BatchSize > 1 {
			sawBatch = true
		}
	}
	if !sawBatch {
		t.Error("no request was served in a coalesced batch")
	}
	st := s.Stats()[0]
	if st.MaxBatch < 2 {
		t.Errorf("max batch %d, want >= 2", st.MaxBatch)
	}
}

// TestBatchAccountedBeforeLastReply: whoever holds a batch's last reply finds
// the batch in the counters and on the device timeline — the worker closes
// the batch's books first and answers second, so a /statsz read that follows
// a reply cannot miss it.
func TestBatchAccountedBeforeLastReply(t *testing.T) {
	lib := kerasLib(t, 8, 8)
	s := NewServer()
	defer s.Drain()
	if err := s.Register("tiny", lib, ModelOptions{Pool: 1}); err != nil {
		t.Fatal(err)
	}
	inputs := map[string]*tensor.Tensor{lib.Module.Main().Params[0].Name: models.RandomInput(lib.Module, 1)}
	var busy soc.Seconds
	for i := 1; i <= 300; i++ {
		if _, err := s.Submit(context.Background(), "tiny", inputs); err != nil {
			t.Fatal(err)
		}
		if got := s.Stats()[0].Batches; got != uint64(i) {
			t.Fatalf("after reply %d the counters hold %d batches", i, got)
		}
		now := s.timeline.BusyTime(soc.KindCPU)
		if now <= busy {
			t.Fatalf("after reply %d the cpu's busy time is %v, as before it", i, now)
		}
		busy = now
	}
}

// TestTimelineStateBoundedByDevices: the server's virtual clock is a running
// sum per device, not a log — 10⁴ requests retain no interval, and the busy
// time /statsz reports is the sum of the replies' simulated times, to the bit
// (one request per batch here, so the terms and their order are the same).
func TestTimelineStateBoundedByDevices(t *testing.T) {
	lib := kerasLib(t, 8, 8)
	s := NewServer()
	defer s.Drain()
	if err := s.Register("tiny", lib, ModelOptions{Pool: 1}); err != nil {
		t.Fatal(err)
	}
	inputs := map[string]*tensor.Tensor{lib.Module.Main().Params[0].Name: models.RandomInput(lib.Module, 1)}
	var sim soc.Seconds
	for i := 0; i < 10000; i++ {
		res, err := s.Submit(context.Background(), "tiny", inputs)
		if err != nil {
			t.Fatal(err)
		}
		sim += res.SimTime
	}
	if n := len(s.Timeline().Events()); n != 0 {
		t.Errorf("server timeline retains %d intervals after 10000 requests, want 0", n)
	}
	if cpu := s.Timeline().BusyTime(soc.KindCPU); cpu != sim || sim <= 0 {
		t.Errorf("cpu busy time %v, replies' simulated times sum to %v", cpu, sim)
	}
}

// TestDrainRejectsNewServesAdmitted pins graceful shutdown: Drain answers
// everything already admitted and rejects new work with ErrDraining.
func TestDrainRejectsNewServesAdmitted(t *testing.T) {
	lib := emotionLib(t)
	s := NewServer()
	if err := s.Register("emotion", lib, ModelOptions{Pool: 2, QueueDepth: 16}); err != nil {
		t.Fatal(err)
	}
	inName := runtime.NewGraphModule(lib).InputNames()[0]

	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			_, err := s.Submit(context.Background(), "emotion",
				map[string]*tensor.Tensor{inName: models.RandomInput(lib.Module, seed)})
			errs <- err
		}(uint64(i + 1))
	}
	wg.Wait() // all four served before drain begins
	s.Drain()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Errorf("pre-drain request failed: %v", err)
		}
	}

	_, err := s.Submit(context.Background(), "emotion",
		map[string]*tensor.Tensor{inName: models.RandomInput(lib.Module, 9)})
	if !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain submit: got %v, want ErrDraining", err)
	}
	if !s.Draining() {
		t.Error("Draining() = false after Drain")
	}
}

// TestDeviceSetsOverlapDisjointSerializeShared sanity-checks the exclusive
// scheduler wiring: a CPU-only endpoint and an APU-only endpoint share no
// locks, while the shared virtual timeline accounts both models' busy time
// on their own devices.
func TestDeviceSetsOverlapDisjointSerializeShared(t *testing.T) {
	s := NewServer()
	cpuLib := emotionLib(t)
	apuLib := emotionLib(t)
	if err := s.Register("cpu-model", cpuLib, ModelOptions{
		Pool: 1, QueueDepth: 8, Devices: []soc.DeviceKind{soc.KindCPU}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Register("apu-model", apuLib, ModelOptions{
		Pool: 1, QueueDepth: 8, Devices: []soc.DeviceKind{soc.KindAPU}}); err != nil {
		t.Fatal(err)
	}
	inName := runtime.NewGraphModule(cpuLib).InputNames()[0]

	var wg sync.WaitGroup
	for _, model := range []string{"cpu-model", "apu-model"} {
		lib := cpuLib
		if model == "apu-model" {
			lib = apuLib
		}
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func(model string, seed uint64) {
				defer wg.Done()
				if _, err := s.Submit(context.Background(), model,
					map[string]*tensor.Tensor{inName: models.RandomInput(lib.Module, seed)}); err != nil {
					t.Error(err)
				}
			}(model, uint64(i+1))
		}
	}
	wg.Wait()
	if cpu := s.Timeline().BusyTime(soc.KindCPU); cpu <= 0 {
		t.Errorf("cpu busy time %v, want > 0", cpu)
	}
	if apu := s.Timeline().BusyTime(soc.KindAPU); apu <= 0 {
		t.Errorf("apu busy time %v, want > 0", apu)
	}
}

// TestByocPoolBitwise repeats the concurrency oracle on the BYOC build: the
// pooled CPU+APU path must also match single-threaded execution exactly.
func TestByocPoolBitwise(t *testing.T) {
	lib := byocLib(t)
	seeds := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	ref := referenceOutputs(t, lib, seeds)
	devs := LibDevices(lib)
	if len(devs) != 2 || devs[0] != soc.KindCPU || devs[1] != soc.KindAPU {
		t.Fatalf("LibDevices = %v, want [cpu apu]", devs)
	}

	s := NewServer()
	if err := s.Register("emotion-byoc", lib, ModelOptions{Pool: 2, QueueDepth: 16}); err != nil {
		t.Fatal(err)
	}
	inName := runtime.NewGraphModule(lib).InputNames()[0]
	var wg sync.WaitGroup
	for _, seed := range seeds {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			res, err := s.Submit(context.Background(), "emotion-byoc",
				map[string]*tensor.Tensor{inName: models.RandomInput(lib.Module, seed)})
			if err != nil {
				t.Error(err)
				return
			}
			for i := range res.Outputs {
				if d := tensor.MaxAbsDiff(res.Outputs[i], ref[seed][i]); d != 0 {
					t.Errorf("seed %d output %d: max abs diff %g", seed, i, d)
				}
			}
		}(seed)
	}
	wg.Wait()
}

// TestSubmitValidatesBinding pins admission-time input validation (partial
// bindings would silently reuse a pooled module's previous inputs).
func TestSubmitValidatesBinding(t *testing.T) {
	lib := emotionLib(t)
	s := NewServer()
	if err := s.Register("emotion", lib, ModelOptions{Pool: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(context.Background(), "emotion", nil); err == nil {
		t.Error("empty binding accepted")
	}
	if _, err := s.Submit(context.Background(), "emotion",
		map[string]*tensor.Tensor{"nope": models.RandomInput(lib.Module, 1)}); err == nil {
		t.Error("misnamed binding accepted")
	}
	if _, err := s.Submit(context.Background(), "missing", nil); !errors.Is(err, ErrUnknownModel) {
		t.Errorf("unknown model: got %v, want ErrUnknownModel", err)
	}
}
