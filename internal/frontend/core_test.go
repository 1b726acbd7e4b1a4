package frontend

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/relay"
	"repro/internal/tensor"
)

func TestSamePad(t *testing.T) {
	cases := []struct {
		name                     string
		inH, inW, kh, kw, sh, sw int
		want                     []int
	}{
		// TFLite SAME: output 8, pad total 1, the odd one at the end.
		{"k3 s2 on 16x16", 16, 16, 3, 3, 2, 2, []int{0, 0, 1, 1}},
		{"k3 s1 on 16x16", 16, 16, 3, 3, 1, 1, []int{1, 1, 1, 1}},
		// The Keras stride-2 case: a stride-blind rule gives [1,1,1,1].
		{"k3 s2 on 8x8", 8, 8, 3, 3, 2, 2, []int{0, 0, 1, 1}},
		{"k3 s2 on 7x7", 7, 7, 3, 3, 2, 2, []int{1, 1, 1, 1}},
		{"k2 s1", 8, 8, 2, 2, 1, 1, []int{0, 0, 1, 1}},
		{"k1 s2", 8, 8, 1, 1, 2, 2, []int{0, 0, 0, 0}},
		{"k5x3 s1x2 on 9x8", 9, 8, 5, 3, 1, 2, []int{2, 0, 2, 1}},
	}
	for _, c := range cases {
		if got := SamePad(c.inH, c.inW, c.kh, c.kw, c.sh, c.sw); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: SamePad = %v, want %v", c.name, got, c.want)
		}
		// SAME padding is exactly what makes a VALID window count ceil(in/s).
		oh := OutDim(c.inH+c.want[0]+c.want[2], c.kh, c.sh, false)
		ow := OutDim(c.inW+c.want[1]+c.want[3], c.kw, c.sw, false)
		if oh != OutDim(c.inH, c.kh, c.sh, true) || ow != OutDim(c.inW, c.kw, c.sw, true) {
			t.Errorf("%s: padded VALID output %dx%d, SAME output %dx%d", c.name, oh, ow,
				OutDim(c.inH, c.kh, c.sh, true), OutDim(c.inW, c.kw, c.sw, true))
		}
	}
}

func TestNCHWAxis(t *testing.T) {
	cases := []struct{ dim, rank, want int }{
		{0, 4, 0}, {1, 4, 3}, {2, 4, 1}, {3, 4, 2},
		{-1, 4, 2}, {-3, 4, 3}, {1, 2, 1}, {-1, 2, 1},
	}
	for _, c := range cases {
		if got, err := NCHWAxis(c.dim, c.rank); err != nil || got != c.want {
			t.Errorf("NCHWAxis(%d, %d) = %d, %v; want %d", c.dim, c.rank, got, err, c.want)
		}
	}
	for _, c := range [][2]int{{4, 4}, {-5, 4}, {2, 2}, {1, 0}} {
		if got, err := NCHWAxis(c[0], c[1]); err == nil {
			t.Errorf("NCHWAxis(%d, %d) = %d, want an error", c[0], c[1], got)
		}
	}
}

func TestNCHWShape(t *testing.T) {
	if got, err := NCHWShape([]int{1, 3, 8, 6}); err != nil || !reflect.DeepEqual(got, []int{1, 8, 6, 3}) {
		t.Errorf("rank 4: %v, %v", got, err)
	}
	if got, err := NCHWShape([]int{1, 5}); err != nil || !reflect.DeepEqual(got, []int{1, 5}) {
		t.Errorf("rank 2: %v, %v", got, err)
	}
	if _, err := NCHWShape([]int{1, 3, 8}); err == nil {
		t.Error("rank 3 accepted")
	}
}

func TestOIHWToOHWI(t *testing.T) {
	w := tensor.New(tensor.Float32, tensor.Shape{2, 3, 2, 2})
	w.FillUniform(tensor.NewRNG(1), -1, 1)
	got := OIHWToOHWI(w)
	if !got.Shape.Equal(tensor.Shape{2, 2, 2, 3}) {
		t.Fatalf("shape %s", got.Shape)
	}
	for o := 0; o < 2; o++ {
		for i := 0; i < 3; i++ {
			for y := 0; y < 2; y++ {
				for x := 0; x < 2; x++ {
					if got.At(o, y, x, i) != w.At(o, i, y, x) {
						t.Fatalf("[%d,%d,%d,%d] moved wrongly", o, i, y, x)
					}
				}
			}
		}
	}
}

func TestFinish(t *testing.T) {
	x := relay.NewVar("x", relay.TType(tensor.Float32, 1, 4))
	if _, err := Finish("fmt", []*relay.Var{x}, nil, nil); err == nil || !strings.HasPrefix(err.Error(), "fmt: ") {
		t.Errorf("no outputs: %v", err)
	}
	_, err := Finish("fmt", []*relay.Var{x}, []relay.Expr{x, nil}, []string{"a", "b"})
	if err == nil || err.Error() != `fmt: unknown output "b"` {
		t.Errorf("unknown output: %v", err)
	}
	relu := relay.NewCall(relay.OpReLU, []relay.Expr{x}, nil)
	m, err := Finish("fmt", []*relay.Var{x}, []relay.Expr{relu, x}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Main().Body.(*relay.Tuple); !ok {
		t.Errorf("two outputs give body %T, want a tuple", m.Main().Body)
	}
	bad := relay.NewCall(relay.OpDense, []relay.Expr{x}, nil)
	if _, err := Finish("fmt", []*relay.Var{x}, []relay.Expr{bad}, nil); err == nil || !strings.Contains(err.Error(), "ill-typed") {
		t.Errorf("ill-typed body: %v", err)
	}
}
