package frame

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// FuzzReader feeds arbitrary bytes to a Reader under both format
// bindings. It must never panic and never hold a buffer larger than
// the binding's limit; every frame it accepts re-encodes to exactly the
// bytes it consumed unless its length prefix was not minimal; a clean
// io.EOF means the frames covered the whole input; and any failure is
// one of io.ErrUnexpectedEOF or ErrBadFrame at a frame start inside
// the input.
func FuzzReader(f *testing.F) {
	for _, bd := range bindings {
		data, bounds := testStream(bd.marker)
		f.Add(data)
		f.Add(data[:len(data)-3])
		f.Add(data[:bounds[2]+1])
		flipped := append([]byte(nil), data...)
		flipped[bounds[1]+4] ^= 0x10
		f.Add(flipped)
	}
	f.Add([]byte{0xB5, 0x80, 0x80, 0x04}) // a 64 KiB prefix with no payload
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, bd := range bindings {
			r := NewReader(bytes.NewReader(data), bd.marker, bd.max)
			prev := int64(-1)
			for {
				p, err := r.Next()
				if cap(r.buf) > bd.max+4 {
					t.Fatalf("%s: buffer of %d bytes past the %d-byte limit", bd.name, cap(r.buf), bd.max)
				}
				if r.Start() <= prev || r.Start() > int64(len(data)) {
					t.Fatalf("%s: frame start %d after %d in %d bytes", bd.name, r.Start(), prev, len(data))
				}
				prev = r.Start()
				if err == io.EOF {
					if r.Start() != int64(len(data)) {
						t.Fatalf("%s: clean EOF at %d of %d bytes", bd.name, r.Start(), len(data))
					}
					break
				}
				if err != nil {
					if !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, ErrBadFrame) {
						t.Fatalf("%s: unexpected error %v", bd.name, err)
					}
					break
				}
				if len(p) == 0 || len(p) > bd.max {
					t.Fatalf("%s: accepted a %d-byte payload", bd.name, len(p))
				}
				consumed := data[r.Start():r.off]
				if enc := Append(nil, bd.marker, p); !bytes.Equal(enc, consumed) && len(enc) >= len(consumed) {
					t.Fatalf("%s: frame at %d does not re-encode to its bytes", bd.name, r.Start())
				}
			}
		}
	})
}
