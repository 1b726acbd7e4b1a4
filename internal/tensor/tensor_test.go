package tensor

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestDTypeSizeAndString(t *testing.T) {
	cases := []struct {
		dt   DType
		size int
		str  string
	}{
		{Float32, 4, "float32"},
		{Int8, 1, "int8"},
		{UInt8, 1, "uint8"},
		{Int32, 4, "int32"},
	}
	for _, c := range cases {
		if c.dt.Size() != c.size {
			t.Errorf("%s size = %d, want %d", c.str, c.dt.Size(), c.size)
		}
		if c.dt.String() != c.str {
			t.Errorf("String() = %q, want %q", c.dt.String(), c.str)
		}
		back, err := ParseDType(c.str)
		if err != nil || back != c.dt {
			t.Errorf("ParseDType(%q) = %v, %v", c.str, back, err)
		}
	}
	if _, err := ParseDType("float16"); err == nil {
		t.Error("ParseDType accepted unknown dtype")
	}
}

func TestDTypeIsQuantized(t *testing.T) {
	if Float32.IsQuantized() || Int32.IsQuantized() {
		t.Error("float32/int32 must not be quantized dtypes")
	}
	if !Int8.IsQuantized() || !UInt8.IsQuantized() {
		t.Error("int8/uint8 must be quantized dtypes")
	}
}

func TestShapeBasics(t *testing.T) {
	s := Shape{2, 3, 4}
	if s.Elems() != 24 {
		t.Errorf("Elems = %d, want 24", s.Elems())
	}
	if (Shape{}).Elems() != 1 {
		t.Error("scalar shape should have 1 element")
	}
	if !s.Equal(Shape{2, 3, 4}) || s.Equal(Shape{2, 3}) || s.Equal(Shape{2, 3, 5}) {
		t.Error("Shape.Equal wrong")
	}
	c := s.Clone()
	c[0] = 9
	if s[0] != 2 {
		t.Error("Clone must not alias")
	}
	if s.String() != "(2,3,4)" {
		t.Errorf("String = %q", s.String())
	}
	if !s.Valid() || (Shape{2, 0}).Valid() || (Shape{-1}).Valid() {
		t.Error("Valid wrong")
	}
}

func TestNewAndAccessors(t *testing.T) {
	for _, dt := range []DType{Float32, Int8, UInt8, Int32} {
		tt := New(dt, Shape{2, 3})
		if tt.Elems() != 6 {
			t.Fatalf("%s Elems = %d", dt, tt.Elems())
		}
		if tt.Bytes() != 6*dt.Size() {
			t.Fatalf("%s Bytes = %d", dt, tt.Bytes())
		}
		for i := 0; i < 6; i++ {
			if tt.GetF(i) != 0 {
				t.Fatalf("%s not zero-initialized", dt)
			}
		}
	}
}

func TestIndexAndAt(t *testing.T) {
	tt := New(Float32, Shape{2, 3, 4})
	tt.Set(7.5, 1, 2, 3)
	if tt.At(1, 2, 3) != 7.5 {
		t.Error("Set/At roundtrip failed")
	}
	if tt.Index(1, 2, 3) != 1*12+2*4+3 {
		t.Errorf("Index = %d", tt.Index(1, 2, 3))
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-bounds index should panic")
		}
	}()
	tt.Index(2, 0, 0)
}

// TestIndexPanics pins the two panic messages byte for byte: Index formats a
// copy of idx so the argument does not escape, and the text must not change.
func TestIndexPanics(t *testing.T) {
	tt := New(Float32, Shape{2, 3, 4})
	cases := []struct {
		idx  []int
		want string
	}{
		{[]int{1, 2}, "tensor: index rank 2 vs shape rank 3"},
		{[]int{0, 0, 0, 0}, "tensor: index rank 4 vs shape rank 3"},
		{[]int{2, 0, 0}, "tensor: index [2 0 0] out of bounds for shape (2,3,4)"},
		{[]int{1, -1, 3}, "tensor: index [1 -1 3] out of bounds for shape (2,3,4)"},
		{[]int{1, 2, 4}, "tensor: index [1 2 4] out of bounds for shape (2,3,4)"},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if got := fmt.Sprint(recover()); got != c.want {
					t.Errorf("Index(%v) panicked with %q, want %q", c.idx, got, c.want)
				}
			}()
			tt.Index(c.idx...)
		}()
	}
}

// TestAtSetDoNotAllocate: the variadic index list stays on the caller's stack.
func TestAtSetDoNotAllocate(t *testing.T) {
	tt := New(Float32, Shape{1, 6, 5, 3})
	q := New(UInt8, Shape{4, 4})
	q.Quant = &QuantParams{Scale: 0.5, ZeroPoint: 3}
	var sink float64
	allocs := testing.AllocsPerRun(100, func() {
		for y := 0; y < 6; y++ {
			for x := 0; x < 5; x++ {
				tt.Set(float64(x+y), 0, y, x, 1)
				sink += tt.At(0, y, x, 1)
			}
		}
		q.Set(2.5, 3, 1)
		sink += q.At(3, 1)
	})
	if allocs != 0 {
		t.Errorf("At/Set allocate %v times per run, want 0", allocs)
	}
	_ = sink
}

func TestQuantParamsRoundTrip(t *testing.T) {
	q := QuantParams{Scale: 0.05, ZeroPoint: 128}
	for _, real := range []float64{-3.0, -0.07, 0, 0.05, 1.234, 5.0} {
		qv := q.Quantize(real)
		back := q.Dequantize(qv)
		if math.Abs(back-real) > float64(q.Scale/2)+1e-12 {
			t.Errorf("quantize(%g)=%d dequantize=%g, err > scale/2", real, qv, back)
		}
	}
}

func TestQuantizedSetGetClamps(t *testing.T) {
	q := QuantParams{Scale: 1, ZeroPoint: 0}
	u := New(UInt8, Shape{1})
	u.Quant = &q
	u.SetF(0, 300)
	if u.GetF(0) != 255 {
		t.Errorf("uint8 should clamp to 255, got %g", u.GetF(0))
	}
	u.SetF(0, -5)
	if u.GetF(0) != 0 {
		t.Errorf("uint8 should clamp to 0, got %g", u.GetF(0))
	}
	i := New(Int8, Shape{1})
	i.Quant = &q
	i.SetF(0, 200)
	if i.GetF(0) != 127 {
		t.Errorf("int8 should clamp to 127, got %g", i.GetF(0))
	}
	i.SetF(0, -200)
	if i.GetF(0) != -128 {
		t.Errorf("int8 should clamp to -128, got %g", i.GetF(0))
	}
}

func TestCloneIndependence(t *testing.T) {
	a := FromF32([]float32{1, 2, 3}, Shape{3})
	b := a.Clone()
	b.F32()[0] = 99
	if a.F32()[0] != 1 {
		t.Error("Clone shares storage")
	}
}

func TestReshapeSharesData(t *testing.T) {
	a := FromF32([]float32{1, 2, 3, 4}, Shape{2, 2})
	b := a.Reshape(Shape{4})
	b.F32()[0] = 42
	if a.F32()[0] != 42 {
		t.Error("Reshape must share storage")
	}
	defer func() {
		if recover() == nil {
			t.Error("bad reshape should panic")
		}
	}()
	a.Reshape(Shape{3})
}

func TestToFloat32AndQuantizeTo(t *testing.T) {
	f := FromF32([]float32{-1, 0, 0.5, 1}, Shape{4})
	q := f.QuantizeTo(UInt8, QuantParams{Scale: 1.0 / 128, ZeroPoint: 128})
	back := q.ToFloat32()
	for i := 0; i < 4; i++ {
		if math.Abs(float64(back.F32()[i])-float64(f.F32()[i])) > 1.0/128 {
			t.Errorf("quantize/dequantize roundtrip error at %d: %g vs %g", i, back.F32()[i], f.F32()[i])
		}
	}
}

func TestAllCloseAndMaxAbsDiff(t *testing.T) {
	a := FromF32([]float32{1, 2, 3}, Shape{3})
	b := FromF32([]float32{1, 2.0005, 3}, Shape{3})
	if !AllClose(a, b, 1e-3, 0) {
		t.Error("AllClose should accept within atol")
	}
	if AllClose(a, b, 1e-6, 0) {
		t.Error("AllClose should reject outside atol")
	}
	if d := MaxAbsDiff(a, b); math.Abs(d-0.0005) > 1e-6 {
		t.Errorf("MaxAbsDiff = %g", d)
	}
	c := FromF32([]float32{1}, Shape{1})
	if AllClose(a, c, 1, 1) {
		t.Error("AllClose must reject shape mismatch")
	}
}

func TestArgMax(t *testing.T) {
	a := FromF32([]float32{0.1, 0.9, 0.3}, Shape{3})
	if a.ArgMax() != 1 {
		t.Errorf("ArgMax = %d", a.ArgMax())
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	rng := NewRNG(42)
	tensors := []*Tensor{
		New(Float32, Shape{2, 3}),
		New(Int32, Shape{5}),
		FromI8([]int8{-128, 0, 127}, Shape{3}, QuantParams{Scale: 0.1, ZeroPoint: -3}),
		FromU8([]uint8{0, 128, 255}, Shape{3}, QuantParams{Scale: 0.02, ZeroPoint: 128}),
		Scalar(3.25),
	}
	tensors[0].FillUniform(rng, -1, 1)
	for _, src := range tensors {
		var buf bytes.Buffer
		if err := src.Serialize(&buf); err != nil {
			t.Fatalf("serialize %s: %v", src, err)
		}
		got, err := ReadFrom(&buf)
		if err != nil {
			t.Fatalf("deserialize %s: %v", src, err)
		}
		if got.DType != src.DType || !got.Shape.Equal(src.Shape) {
			t.Fatalf("roundtrip mismatch: %s vs %s", got, src)
		}
		if (got.Quant == nil) != (src.Quant == nil) {
			t.Fatalf("quant presence mismatch for %s", src)
		}
		if got.Quant != nil && *got.Quant != *src.Quant {
			t.Fatalf("quant mismatch: %v vs %v", got.Quant, src.Quant)
		}
		if !AllClose(got, src, 0, 0) {
			t.Fatalf("data mismatch for %s", src)
		}
	}
}

func TestReadFromRejectsCorrupt(t *testing.T) {
	cases := [][]byte{
		{},
		{99, 0},                  // bad dtype
		{0, 7},                   // bad quant flag
		{0, 0, 0xff, 0xff, 0, 0}, // absurd rank
		{0, 0, 1, 0, 0, 0, 2, 0}, // truncated shape+data
	}
	for i, c := range cases {
		if _, err := ReadFrom(bytes.NewReader(c)); err == nil {
			t.Errorf("case %d: corrupt stream accepted", i)
		}
	}
}

// TestReadFromBoundsAllocation: a header may declare any shape, so ReadFrom
// must spend memory on bytes that arrived, not on the declared element count.
// Every rank up to the format's maximum with every extent 65535, and a large
// shape whose payload stops early, fail under a fixed allocation ceiling.
func TestReadFromBoundsAllocation(t *testing.T) {
	header := func(dt DType, shape ...uint32) []byte {
		b := []byte{byte(dt), 0}
		b = binary.LittleEndian.AppendUint32(b, uint32(len(shape)))
		for _, d := range shape {
			b = binary.LittleEndian.AppendUint32(b, d)
		}
		return b
	}
	var streams [][]byte
	for _, dt := range []DType{Float32, Int8, UInt8, Int32} {
		for rank := 1; rank <= maxSerializedRank; rank++ {
			shape := make([]uint32, rank)
			for i := range shape {
				shape[i] = 65535
			}
			streams = append(streams, header(dt, shape...))
		}
		streams = append(streams,
			header(dt, math.MaxUint32, math.MaxUint32),
			// 1000 payload bytes of the 4·2³⁰ declared.
			append(header(dt, 1<<15, 1<<15), make([]byte, 1000)...))
	}
	const ceiling = 1 << 20
	for _, stream := range streams {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := ReadFrom(bytes.NewReader(stream))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("header % x: accepted as %s", stream[:min(len(stream), 14)], got)
		}
		if spent := after.TotalAlloc - before.TotalAlloc; spent > ceiling {
			t.Errorf("header % x: %d bytes allocated before failing (%v), ceiling %d",
				stream[:min(len(stream), 14)], spent, err, ceiling)
		}
	}
}

// TestSerializeRoundTripMultiStep: payloads longer than one read step, of
// every dtype, come back bit for bit and without spare capacity.
func TestSerializeRoundTripMultiStep(t *testing.T) {
	rng := NewRNG(7)
	for _, dt := range []DType{Float32, Int8, UInt8, Int32} {
		for _, n := range []int{readStep/dt.Size() - 1, readStep / dt.Size(), readStep/dt.Size() + 1, 5*readStep/dt.Size() + 3} {
			src := New(dt, Shape{n})
			for i := 0; i < n; i++ {
				switch dt {
				case Float32:
					src.f32[i] = math.Float32frombits(uint32(rng.Intn(1 << 31)))
				case Int32:
					src.i32[i] = int32(rng.Intn(1<<31)) - 1<<30
				case Int8:
					src.i8[i] = int8(rng.Intn(256) - 128)
				case UInt8:
					src.u8[i] = uint8(rng.Intn(256))
				}
			}
			var want bytes.Buffer
			if err := src.Serialize(&want); err != nil {
				t.Fatal(err)
			}
			got, err := ReadFrom(bytes.NewReader(want.Bytes()))
			if err != nil {
				t.Fatalf("%s[%d]: %v", dt, n, err)
			}
			var back bytes.Buffer
			if err := got.Serialize(&back); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(back.Bytes(), want.Bytes()) {
				t.Errorf("%s[%d]: round trip changed the bytes", dt, n)
			}
			if c := cap(got.f32) + cap(got.i32) + cap(got.i8) + cap(got.u8); c != n {
				t.Errorf("%s[%d]: backing capacity %d", dt, n, c)
			}
		}
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	if NewRNG(0).Uint64() == 0 {
		t.Error("zero seed must be remapped")
	}
}

func TestFillGlorotRange(t *testing.T) {
	tt := New(Float32, Shape{64, 3, 3, 16})
	tt.FillGlorot(NewRNG(1), 3*3*16, 64)
	limit := math.Sqrt(6.0 / float64(3*3*16+64))
	for i, v := range tt.F32() {
		if math.Abs(float64(v)) > limit {
			t.Fatalf("element %d = %g exceeds glorot limit %g", i, v, limit)
		}
	}
}

// Property: quantize→dequantize error is bounded by scale/2 for values
// representable in range.
func TestQuantRoundTripProperty(t *testing.T) {
	q := QuantParams{Scale: 0.03, ZeroPoint: 10}
	f := func(x float64) bool {
		x = math.Mod(x, 3) // keep in representable range of int8-ish span
		if math.IsNaN(x) {
			return true
		}
		back := q.Dequantize(q.Quantize(x))
		return math.Abs(back-x) <= float64(q.Scale/2)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: serialize→deserialize is the identity on float tensors.
func TestSerializeProperty(t *testing.T) {
	f := func(raw []float32) bool {
		if len(raw) == 0 {
			raw = []float32{0}
		}
		for i, v := range raw {
			if math.IsNaN(float64(v)) {
				raw[i] = 0
			}
		}
		src := FromF32(raw, Shape{len(raw)})
		var buf bytes.Buffer
		if err := src.Serialize(&buf); err != nil {
			return false
		}
		got, err := ReadFrom(&buf)
		if err != nil {
			return false
		}
		return AllClose(got, src, 0, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: broadcast fill/readback agree across all dtypes.
func TestSetGetFProperty(t *testing.T) {
	f := func(v float64) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
		v = math.Mod(v, 100)
		tt := New(Float32, Shape{1})
		tt.SetF(0, v)
		return math.Abs(tt.GetF(0)-v) < 1e-4*(1+math.Abs(v))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFromConstructorsValidateLength(t *testing.T) {
	cases := []func(){
		func() { FromF32([]float32{1, 2}, Shape{3}) },
		func() { FromI8([]int8{1}, Shape{2}, QuantParams{Scale: 1}) },
		func() { FromU8([]uint8{1}, Shape{2}, QuantParams{Scale: 1}) },
		func() { FromI32([]int32{1}, Shape{2}) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: length mismatch not rejected", i)
				}
			}()
			f()
		}()
	}
}

func TestTypedAccessorPanicsOnWrongDType(t *testing.T) {
	f := New(Float32, Shape{1})
	defer func() {
		if recover() == nil {
			t.Error("I8() on float tensor should panic")
		}
	}()
	f.I8()
}

// TestQuantizeFromMatchesSetF pins the typed quantize loop (QuantizeFrom,
// and QuantizeTo through it) against SetF, bit for bit, for both dtypes:
// exact ties at ±.5 and the float32 neighbours either side of each, negatives,
// values past both ends of the range, ±Inf and NaN, under power-of-two and
// other scales and several zero points.
func TestQuantizeFromMatchesSetF(t *testing.T) {
	var src []float32
	for n := -260; n <= 260; n++ {
		for _, v := range []float32{float32(n), float32(n) + 0.5, float32(n) + 0.25, float32(n) / 3} {
			src = append(src, v, math.Nextafter32(v, float32(math.Inf(1))), math.Nextafter32(v, float32(math.Inf(-1))))
		}
	}
	src = append(src, 1e9, -1e9, 3e38, -3e38, float32(math.Inf(1)), float32(math.Inf(-1)),
		float32(math.NaN()), float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32)
	for _, dt := range []DType{UInt8, Int8} {
		for _, q := range []QuantParams{{1, 0}, {0.5, 128}, {0.25, -7}, {2, 3}, {0.0078125, 127}, {0.02, -128}, {0.1, 100}} {
			got := New(dt, Shape{len(src)})
			got.Quant = &q
			got.QuantizeFrom(src)
			want := New(dt, Shape{len(src)})
			want.Quant = &q
			for i, v := range src {
				want.SetF(i, float64(v))
			}
			viaTo := New(Float32, Shape{len(src)})
			copy(viaTo.F32(), src)
			to := viaTo.QuantizeTo(dt, q)
			for i, v := range src {
				if got.GetF(i) != want.GetF(i) || to.GetF(i) != want.GetF(i) {
					t.Fatalf("%s %+v: %v quantizes to %v (QuantizeTo %v), SetF %v",
						dt, q, v, got.GetF(i), to.GetF(i), want.GetF(i))
				}
			}
		}
	}
}

// TestTensorSizeClass pins the Tensor header at 144 bytes, the size class it
// shares with the 136-byte header it had before the derived slot. One more
// word would move every tensor the stack allocates into the 160-byte class.
func TestTensorSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Tensor{}); n > 144 {
		t.Fatalf("unsafe.Sizeof(Tensor{}) = %d, want <= 144", n)
	}
}

// TestDerivedIsNotCarried: a derived value (a weight's packed panels)
// belongs to the one tensor it was attached to. A view, a copy or a
// conversion of that tensor starts without one, and the first attached
// value stays put.
func TestDerivedIsNotCarried(t *testing.T) {
	packed := func() *Tensor {
		x := FromF32([]float32{1, 2, 3, 4, 5, 6}, Shape{2, 3})
		x.SetDerived("panels")
		x.SetDerived("other")
		if x.Derived() != "panels" {
			t.Fatalf("Derived() = %v after attaching \"panels\" then \"other\", want the first", x.Derived())
		}
		return x
	}
	arenaView := func() *Tensor {
		a := NewArena()
		id := a.Add(Float32, 6)
		a.storages[id].SetDerived("panels")
		v, err := a.View(id, Float32, Shape{3, 2}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	cases := []struct {
		name string
		make func() *Tensor
	}{
		{"Reshape", func() *Tensor { return packed().Reshape(Shape{3, 2}) }},
		{"Clone", func() *Tensor { return packed().Clone() }},
		{"Arena.View", arenaView},
		{"QuantizeTo", func() *Tensor { return packed().QuantizeTo(UInt8, QuantParams{Scale: 0.1}) }},
	}
	for _, c := range cases {
		if d := c.make().Derived(); d != nil {
			t.Errorf("%s of a tensor with a derived value carries %v, want nil", c.name, d)
		}
	}
}
