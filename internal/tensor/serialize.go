package tensor

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// The binary tensor format used by artifact export (runtime package) and by
// the synthetic serialized model formats (tflite-like, darknet .weights):
//
//	u8    dtype
//	u8    hasQuant (0/1)
//	[f64 scale, i32 zeroPoint]   if hasQuant
//	u32   rank
//	u32 × rank   extents
//	raw little-endian element data
const maxSerializedRank = 32

// Serialize writes the tensor to w in the binary tensor format.
func (t *Tensor) Serialize(w io.Writer) error {
	hdr := []byte{byte(t.DType), 0}
	if t.Quant != nil {
		hdr[1] = 1
	}
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if t.Quant != nil {
		if err := binary.Write(w, binary.LittleEndian, t.Quant.Scale); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, t.Quant.ZeroPoint); err != nil {
			return err
		}
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(t.Shape))); err != nil {
		return err
	}
	for _, d := range t.Shape {
		if err := binary.Write(w, binary.LittleEndian, uint32(d)); err != nil {
			return err
		}
	}
	return t.writeData(w)
}

func (t *Tensor) writeData(w io.Writer) error {
	switch t.DType {
	case Float32:
		buf := make([]byte, 4*len(t.f32))
		for i, v := range t.f32 {
			binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
		}
		_, err := w.Write(buf)
		return err
	case Int32:
		buf := make([]byte, 4*len(t.i32))
		for i, v := range t.i32 {
			binary.LittleEndian.PutUint32(buf[4*i:], uint32(v))
		}
		_, err := w.Write(buf)
		return err
	case Int8:
		buf := make([]byte, len(t.i8))
		for i, v := range t.i8 {
			buf[i] = byte(v)
		}
		_, err := w.Write(buf)
		return err
	case UInt8:
		_, err := w.Write(t.u8)
		return err
	}
	return fmt.Errorf("tensor: cannot serialize dtype %s", t.DType)
}

// ReadFrom deserializes one tensor from r.
func ReadFrom(r io.Reader) (*Tensor, error) {
	hdr := make([]byte, 2)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	dt := DType(hdr[0])
	if dt != Float32 && dt != Int8 && dt != UInt8 && dt != Int32 {
		return nil, fmt.Errorf("tensor: corrupt stream, dtype byte %d", hdr[0])
	}
	var quant *QuantParams
	if hdr[1] == 1 {
		var q QuantParams
		if err := binary.Read(r, binary.LittleEndian, &q.Scale); err != nil {
			return nil, err
		}
		if err := binary.Read(r, binary.LittleEndian, &q.ZeroPoint); err != nil {
			return nil, err
		}
		quant = &q
	} else if hdr[1] != 0 {
		return nil, fmt.Errorf("tensor: corrupt stream, quant flag %d", hdr[1])
	}
	var rank uint32
	if err := binary.Read(r, binary.LittleEndian, &rank); err != nil {
		return nil, err
	}
	if rank > maxSerializedRank {
		return nil, fmt.Errorf("tensor: corrupt stream, rank %d", rank)
	}
	shape := make(Shape, rank)
	for i := range shape {
		var d uint32
		if err := binary.Read(r, binary.LittleEndian, &d); err != nil {
			return nil, err
		}
		shape[i] = int(d)
	}
	if !shape.Valid() && rank > 0 {
		return nil, fmt.Errorf("tensor: corrupt stream, shape %v", shape)
	}
	n := 1
	for _, d := range shape {
		if d > math.MaxInt/4/n { // n·Size() must fit an int
			return nil, fmt.Errorf("tensor: corrupt stream, shape %v too large", shape)
		}
		n *= d
	}
	t := &Tensor{DType: dt, Shape: shape, Quant: quant}
	if err := t.readData(r, n); err != nil {
		return nil, err
	}
	return t, nil
}

// readStep is how many payload bytes readData asks the reader for at a time.
const readStep = 256 << 10

// readData reads n elements in steps of at most readStep bytes and grows the
// backing slice only as bytes arrive, so a header that declares more data
// than the stream holds costs O(bytes read), not O(declared shape). A tensor
// that fits one step is allocated once, at its final size.
func (t *Tensor) readData(r io.Reader, n int) error {
	size := t.DType.Size()
	var buf []byte // staging for the dtypes that need decoding
	if t.DType != UInt8 {
		buf = make([]byte, min(n*size, readStep))
	}
	for have := 0; have < n; {
		step := min(n-have, readStep/size)
		var b []byte
		switch t.DType {
		case Float32:
			t.f32, b = grown(t.f32, have+step, n), buf[:4*step]
		case Int32:
			t.i32, b = grown(t.i32, have+step, n), buf[:4*step]
		case Int8:
			t.i8, b = grown(t.i8, have+step, n), buf[:step]
		case UInt8: // bytes are elements: read in place
			t.u8 = grown(t.u8, have+step, n)
			b = t.u8[have:]
		}
		if _, err := io.ReadFull(r, b); err != nil {
			return err
		}
		switch t.DType {
		case Float32:
			for i := range t.f32[have:] {
				t.f32[have+i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
			}
		case Int32:
			for i := range t.i32[have:] {
				t.i32[have+i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
			}
		case Int8:
			for i := range t.i8[have:] {
				t.i8[have+i] = int8(b[i])
			}
		}
		have += step
	}
	return nil
}

// grown returns s resliced to length need, reallocating with at least double
// the capacity — never beyond total — when need does not fit.
func grown[T any](s []T, need, total int) []T {
	if need <= cap(s) {
		return s[:need]
	}
	out := make([]T, need, min(max(2*cap(s), need), total))
	copy(out, s)
	return out
}
