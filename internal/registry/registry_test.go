package registry

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/models"
	"repro/internal/runtime"
	"repro/internal/serve"
	"repro/internal/tensor"
)

func buildEmotion(t testing.TB) *runtime.Lib {
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

func submitSeed(t *testing.T, s *serve.Server, model string, lib *runtime.Lib, seed uint64) *serve.Result {
	t.Helper()
	inName := runtime.NewGraphModule(lib).InputNames()[0]
	res, err := s.Submit(context.Background(), model,
		map[string]*tensor.Tensor{inName: models.RandomInput(lib.Module, seed)})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestDeployRollbackLifecycle walks the full state machine: v1 deploy, v2
// hot-load with cutover, rollback (pointer swap), v3 deploy retiring the
// displaced standby, and Remove draining everything.
func TestDeployRollbackLifecycle(t *testing.T) {
	s := serve.NewServer()
	r := New(s)
	opts := serve.ModelOptions{Pool: 1, QueueDepth: 8}

	v1, v2, v3 := buildEmotion(t), buildEmotion(t), buildEmotion(t)
	if err := r.Deploy("emotion", "v1", v1, opts, "key1"); err != nil {
		t.Fatal(err)
	}
	if res := submitSeed(t, s, "emotion", v1, 1); res.Version != "v1" {
		t.Fatalf("serving %q, want v1", res.Version)
	}

	if err := r.Deploy("emotion", "v2", v2, opts, "key2"); err != nil {
		t.Fatal(err)
	}
	if res := submitSeed(t, s, "emotion", v2, 1); res.Version != "v2" {
		t.Fatalf("after deploy: serving %q, want v2", res.Version)
	}
	if a, _ := r.Active("emotion"); a.Version != "v2" || a.CacheKey != "key2" {
		t.Fatalf("active %+v, want v2/key2", a)
	}

	restored, err := r.Rollback("emotion")
	if err != nil {
		t.Fatal(err)
	}
	if restored != "v1" {
		t.Fatalf("rollback restored %q, want v1", restored)
	}
	if res := submitSeed(t, s, "emotion", v1, 1); res.Version != "v1" {
		t.Fatalf("after rollback: serving %q, want v1", res.Version)
	}

	// v3 displaces the standby (v2), which must drain and retire.
	if err := r.Deploy("emotion", "v3", v3, opts, ""); err != nil {
		t.Fatal(err)
	}
	states := map[string]string{}
	for _, v := range r.Status() {
		states[v.Version] = v.State
	}
	if states["v3"] != StateActive || states["v1"] != StateStandby || states["v2"] != StateRetired {
		t.Fatalf("states %v, want v3 active / v1 standby / v2 retired", states)
	}

	if err := r.Remove("emotion"); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Active("emotion"); ok {
		t.Fatal("model still active after Remove")
	}
	inName := runtime.NewGraphModule(v1).InputNames()[0]
	if _, err := s.Submit(context.Background(), "emotion",
		map[string]*tensor.Tensor{inName: models.RandomInput(v1.Module, 1)}); err == nil {
		t.Fatal("submit after Remove should fail")
	}

	if _, err := r.Rollback("emotion"); err == nil {
		t.Error("rollback with nothing deployed should fail")
	}
	if err := r.Deploy("", "v1", v1, opts, ""); err == nil {
		t.Error("empty model name should fail")
	}
}

// TestCacheSingleFlightAndLayers pins the artifact cache contract: one build
// per key under concurrent demand, memory hits for the same process, disk
// hits (LoadLibrary) for a cold process, and the byte counters moving.
func TestCacheSingleFlightAndLayers(t *testing.T) {
	m, err := models.BuildEmotion(models.SizeLite)
	if err != nil {
		t.Fatal(err)
	}
	opts := runtime.BuildOptions{OptLevel: 3}
	key, err := Key(m, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	key2, err := Key(m, runtime.BuildOptions{OptLevel: 3, UseNIR: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if key == key2 {
		t.Fatal("different build options must produce different keys")
	}
	key3, err := Key(m, opts, []byte(`{"tuned":1}`))
	if err != nil {
		t.Fatal(err)
	}
	if key3 == key {
		t.Fatal("tuning records must change the key")
	}

	dir := t.TempDir()
	c, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	var builds atomic.Int64
	build := func() (*runtime.Lib, error) {
		builds.Add(1)
		return runtime.Build(m, opts)
	}

	// 8 concurrent requesters, one compilation.
	var wg sync.WaitGroup
	libs := make([]*runtime.Lib, 8)
	for i := range libs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lib, _, err := c.GetOrBuild(key, nil, build)
			if err != nil {
				t.Error(err)
				return
			}
			libs[i] = lib
		}(i)
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("builds = %d, want 1 (single-flight)", n)
	}
	for _, lib := range libs[1:] {
		if lib != libs[0] {
			t.Fatal("concurrent requesters must share one *Lib")
		}
	}
	st := c.Stats()
	if st.Builds != 1 || st.Misses != 1 || st.Hits < 7 || st.BytesWritten == 0 {
		t.Fatalf("stats after warm-up: %+v", st)
	}

	// A cold cache over the same directory hits the disk layer: zero builds.
	c2, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	lib, hit, err := c2.GetOrBuild(key, nil, func() (*runtime.Lib, error) {
		t.Fatal("disk hit must not compile")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("want disk hit")
	}
	st2 := c2.Stats()
	if st2.DiskHits != 1 || st2.Builds != 0 || st2.BytesRead == 0 {
		t.Fatalf("cold-cache stats: %+v", st2)
	}

	// The reloaded lib must serve: outputs bitwise-identical to the built one.
	gmA, gmB := runtime.NewGraphModule(libs[0]), runtime.NewGraphModule(lib)
	in := models.RandomInput(m, 7)
	name := gmA.InputNames()[0]
	for _, gm := range []*runtime.GraphModule{gmA, gmB} {
		gm.SetInput(name, in)
		if err := gm.Run(); err != nil {
			t.Fatal(err)
		}
	}
	a, b := gmA.MustOutput(0), gmB.MustOutput(0)
	if !a.Shape.Equal(b.Shape) {
		t.Fatal("shape mismatch")
	}
	for i := 0; i < a.Elems(); i++ {
		if a.GetF(i) != b.GetF(i) {
			t.Fatalf("output[%d]: built %v != reloaded %v", i, a.GetF(i), b.GetF(i))
		}
	}

	// A failed build must not poison the key.
	_, _, err = c.GetOrBuild("bad-key", nil, func() (*runtime.Lib, error) {
		return nil, fmt.Errorf("boom")
	})
	if err == nil {
		t.Fatal("want build error")
	}
	if _, _, err := c.GetOrBuild("bad-key", nil, build); err != nil {
		t.Fatalf("key poisoned after failed build: %v", err)
	}
}

// TestKeyDeterminism: the same module built twice (fresh synthesis) keys
// identically, so separate worker processes agree on artifact identity.
func TestKeyDeterminism(t *testing.T) {
	opts := runtime.BuildOptions{OptLevel: 3, UseNIR: true}
	m1, err := models.BuildEmotion(models.SizeLite)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := models.BuildEmotion(models.SizeLite)
	if err != nil {
		t.Fatal(err)
	}
	k1, err := Key(m1, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := Key(m2, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("same model, same options: keys differ\n%s\n%s", k1, k2)
	}
}

// TestAdminBodyCap: every /admin/ POST reads at most maxAdminBody bytes and
// answers a longer body with 413 before touching the registry.
func TestAdminBodyCap(t *testing.T) {
	h := New(serve.NewServer()).AdminHandler(nil)
	huge := `{"model":"` + strings.Repeat("a", maxAdminBody) + `"}`
	for _, path := range []string{"/admin/deploy", "/admin/rollback", "/admin/remove"} {
		t.Run(path, func(t *testing.T) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(huge)))
			if rec.Code != http.StatusRequestEntityTooLarge {
				t.Errorf("oversized body: status %d, want 413: %s", rec.Code, rec.Body)
			}
			rec = httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(`{"model":"m","version":"v"}`)))
			if rec.Code == http.StatusRequestEntityTooLarge || rec.Code == http.StatusBadRequest {
				t.Errorf("ordinary body refused at the edge: status %d: %s", rec.Code, rec.Body)
			}
		})
	}
}
