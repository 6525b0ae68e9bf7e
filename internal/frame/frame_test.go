package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"
)

// bindings are the two formats built on this envelope: the flight
// journal (0xA7, 64 MiB) and the wire fix protocol (0xB5, 64 KiB).
var bindings = []struct {
	name   string
	marker byte
	max    int
}{
	{"journal", 0xA7, 1 << 26},
	{"wire", 0xB5, 1 << 16},
}

// testStream frames a few payloads of varied size under marker and
// returns the stream and each frame's start offset plus a final entry
// at EOF.
func testStream(marker byte) ([]byte, []int) {
	var b []byte
	bounds := []int{0}
	for i, n := range []int{1, 9, 200, 37} {
		p := make([]byte, n)
		for j := range p {
			p[j] = byte(i*31 + j*7)
		}
		b = Append(b, marker, p)
		bounds = append(bounds, len(b))
	}
	return b, bounds
}

// readAll reads frames until an error and returns the payload count,
// the error, and the start offset of the frame that failed.
func readAll(data []byte, marker byte, max int) (int, error, int64) {
	r := NewReader(bytes.NewReader(data), marker, max)
	for n := 0; ; n++ {
		if _, err := r.Next(); err != nil {
			return n, err, r.Start()
		}
	}
}

func TestRoundTrip(t *testing.T) {
	for _, bd := range bindings {
		data, bounds := testStream(bd.marker)
		r := NewReader(bytes.NewReader(data), bd.marker, bd.max)
		for i := 0; i+1 < len(bounds); i++ {
			p, err := r.Next()
			if err != nil {
				t.Fatalf("%s: frame %d: %v", bd.name, i, err)
			}
			if r.Start() != int64(bounds[i]) {
				t.Fatalf("%s: frame %d starts at %d, want %d", bd.name, i, r.Start(), bounds[i])
			}
			if got := Append(nil, bd.marker, p); !bytes.Equal(got, data[bounds[i]:bounds[i+1]]) {
				t.Fatalf("%s: frame %d does not re-encode to its bytes", bd.name, i)
			}
		}
		if _, err := r.Next(); err != io.EOF {
			t.Fatalf("%s: end of stream: %v, want io.EOF", bd.name, err)
		}
	}
}

// TestTruncationEveryOffset cuts the stream at every byte offset inside
// the final frame: the frames before it read back, and Next reports
// io.ErrUnexpectedEOF at the final frame's start.
func TestTruncationEveryOffset(t *testing.T) {
	for _, bd := range bindings {
		data, bounds := testStream(bd.marker)
		last := bounds[len(bounds)-2]
		if n, err, _ := readAll(data[:last], bd.marker, bd.max); err != io.EOF || n != len(bounds)-2 {
			t.Fatalf("%s: cut on a frame boundary: %d frames, %v", bd.name, n, err)
		}
		for off := last + 1; off < len(data); off++ {
			n, err, start := readAll(data[:off], bd.marker, bd.max)
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("%s: cut at %d: err %v, want io.ErrUnexpectedEOF", bd.name, off, err)
			}
			if n != len(bounds)-2 || start != int64(last) {
				t.Fatalf("%s: cut at %d: %d frames, failed at %d; want %d frames, failed at %d",
					bd.name, off, n, start, len(bounds)-2, last)
			}
		}
	}
}

// TestEveryByteFlipRejected applies every nonzero XOR mask to every
// byte of a frame in the middle and of the final frame: the frames
// before it read back and the flipped frame never does.
func TestEveryByteFlipRejected(t *testing.T) {
	for _, bd := range bindings {
		data, bounds := testStream(bd.marker)
		for _, fi := range []int{1, len(bounds) - 2} {
			for off := bounds[fi]; off < bounds[fi+1]; off++ {
				for mask := 1; mask < 256; mask++ {
					mut := append([]byte(nil), data...)
					mut[off] ^= byte(mask)
					n, err, start := readAll(mut, bd.marker, bd.max)
					if n != fi || start != int64(bounds[fi]) {
						t.Fatalf("%s: flip %#x at %d: read %d frames, failed at %d (%v); want %d frames, failed at %d",
							bd.name, mask, off, n, start, err, fi, bounds[fi])
					}
					if !errors.Is(err, ErrBadFrame) && !errors.Is(err, io.ErrUnexpectedEOF) {
						t.Fatalf("%s: flip %#x at %d: err %v", bd.name, mask, off, err)
					}
				}
			}
		}
	}
}

func TestBadEnvelopes(t *testing.T) {
	for _, bd := range bindings {
		other := bindings[0].marker ^ bindings[1].marker ^ bd.marker
		crc := []byte{0, 0, 0, 0}
		for name, data := range map[string][]byte{
			"other format's marker": Append(nil, other, []byte{1}),
			"zero length":           append([]byte{bd.marker, 0}, crc...),
			"length over limit":     append(binary.AppendUvarint([]byte{bd.marker}, uint64(bd.max)+1), crc...),
			"length overflows":      {bd.marker, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},
		} {
			if _, err := NewReader(bytes.NewReader(data), bd.marker, bd.max).Next(); !errors.Is(err, ErrBadFrame) {
				t.Fatalf("%s: %s: err %v, want ErrBadFrame", bd.name, name, err)
			}
		}
	}
	// The limit itself is a legal payload length; one byte more is not.
	at := Append(nil, 0xB5, make([]byte, 100))
	if p, err := NewReader(bytes.NewReader(at), 0xB5, 100).Next(); err != nil || len(p) != 100 {
		t.Fatalf("payload at the limit: %d bytes, %v", len(p), err)
	}
	over := Append(nil, 0xB5, make([]byte, 101))
	if _, err := NewReader(bytes.NewReader(over), 0xB5, 100).Next(); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("payload over the limit: %v", err)
	}
}

// errReader fails every read with an I/O error.
type errReader struct{}

var errDisk = errors.New("disk on fire")

func (errReader) Read([]byte) (int, error) { return 0, errDisk }

func TestIOErrorPassesThrough(t *testing.T) {
	data, bounds := testStream(0xB5)
	r := NewReader(io.MultiReader(bytes.NewReader(data[:bounds[2]+3]), errReader{}), 0xB5, 1<<16)
	for i := 0; i < 2; i++ {
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Next(); err != errDisk {
		t.Fatalf("err %v, want the reader's own error", err)
	}
}

// TestNextNoAllocs: steady-state reads reuse the payload buffer.
func TestNextNoAllocs(t *testing.T) {
	data, _ := testStream(0xB5)
	stream := bytes.Repeat(data, 64)
	br := bytes.NewReader(stream)
	r := NewReader(br, 0xB5, 1<<16)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := r.Next(); err == io.EOF {
			br.Reset(stream)
		} else if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Next allocates %v times per frame", allocs)
	}
}

func TestDecoder(t *testing.T) {
	var p []byte
	p = append(p, 7)
	p = binary.AppendUvarint(p, 300)
	p = AppendVarint(p, -5)
	p = AppendFloat64(p, math.Pi)
	p = binary.AppendUvarint(p, 2)
	p = append(p, 8, 9)
	d := NewDecoder(p)
	if d.Byte() != 7 || d.Uvarint() != 300 || d.Varint() != -5 || d.Float64() != math.Pi ||
		d.Count(1) != 2 || d.Byte() != 8 || d.Byte() != 9 {
		t.Fatal("decoded values differ")
	}
	if d.Err() != nil || d.Len() != 0 {
		t.Fatalf("err %v, %d bytes left", d.Err(), d.Len())
	}
	// A read past the end latches the error; later reads return zero.
	if d.Byte() != 0 || d.Err() == nil {
		t.Fatal("read past the end not latched")
	}
	d = NewDecoder(p[:len(p)-6])
	d.Byte()
	d.Uvarint()
	d.Varint()
	if d.Float64() != 0 || d.Err() == nil || d.Uvarint() != 0 {
		t.Fatal("short float64 not latched")
	}
	// A count larger than the remaining bytes allow is refused.
	d = NewDecoder(binary.AppendUvarint(make([]byte, 0, 8), 1000))
	if d.Count(8) != 0 || d.Err() == nil {
		t.Fatal("implausible count accepted")
	}
}

func TestVarintRoundTrip(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 63, -64, 64, math.MaxInt64, math.MinInt64, QuantMax, -QuantMax} {
		d := NewDecoder(AppendVarint(nil, v))
		if got := d.Varint(); got != v || d.Err() != nil {
			t.Fatalf("varint %d -> %d (%v)", v, got, d.Err())
		}
	}
	if n := len(AppendVarint(nil, -1)); n != 1 {
		t.Fatalf("-1 encodes in %d bytes", n)
	}
}

// TestQuantSaturation: non-finite and absurd values stay bounded, NaN
// maps to 0, and rounding is to the nearest millimetre.
func TestQuantSaturation(t *testing.T) {
	for v, want := range map[float64]int64{
		math.Inf(1): QuantMax, math.Inf(-1): -QuantMax, 1e300: QuantMax, -1e300: -QuantMax,
		1.0004: 1000, -1.0006: -1001, 0: 0,
	} {
		if got := Quant(v); got != want {
			t.Fatalf("Quant(%v) = %d, want %d", v, got, want)
		}
	}
	if Quant(math.NaN()) != 0 {
		t.Fatal("NaN does not quantize to 0")
	}
	if got := Unquant(Quant(-12.3456)); got != -12.346 {
		t.Fatalf("round trip -12.3456 -> %v", got)
	}
}
