// Package frame is the one binary envelope the flight journal
// (internal/journal) and the fix protocol (internal/wire) share, plus
// the helpers both use to encode and walk frame payloads.
//
// # Grammar
//
//	frame := marker u8 | payloadLen uvarint | payload | crc32(payload) u32le
//
// Formats differ only in their marker byte and their payload limit; a
// Reader is bound to both. Every frame is independently checksummed
// (CRC-32/IEEE over the payload), so a torn stream or a flipped byte
// fails at the reader instead of decoding into plausible garbage. An
// empty payload or a length prefix above the limit is corruption.
//
// Payload fields are bytes, uvarints, zigzag varints of signed values
// (AppendVarint, Decoder.Varint) and raw little-endian float64 bits.
// Metric scalars are millimetre fixed point via Quant, which saturates
// so non-finite or absurd inputs cannot produce unbounded varints.
package frame

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// ErrBadFrame reports an envelope violation: bad marker, bad length
// prefix, or CRC mismatch. A stream that produced it cannot be
// resynchronized.
var ErrBadFrame = errors.New("frame: bad frame")

// Append wraps payload in the envelope under marker and appends it.
func Append(dst []byte, marker byte, payload []byte) []byte {
	dst = append(dst, marker)
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
}

// Reader reads the frames of one format off a byte stream, verifying
// each envelope. It buffers its input and reuses one payload buffer:
// the payload Next returns is valid until the following call.
type Reader struct {
	br     *bufio.Reader
	marker byte
	max    uint64
	off    int64 // bytes consumed by complete frames
	start  int64 // offset of the frame Next last read
	buf    []byte
}

// NewReader reads frames carrying marker with payloads of at most
// maxPayload bytes from r.
func NewReader(r io.Reader, marker byte, maxPayload int) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 4096), marker: marker, max: uint64(maxPayload)}
}

// Rebind makes the following frames carry marker. A format whose
// header is itself a frame under a different marker reads the header
// first, then rebinds.
func (r *Reader) Rebind(marker byte) { r.marker = marker }

// Start is the stream offset of the frame the last Next call read or
// failed on.
func (r *Reader) Start() int64 { return r.start }

// Next returns the next frame's payload. It returns io.EOF only at a
// clean frame boundary, io.ErrUnexpectedEOF when the stream ends inside
// a frame, an error wrapping ErrBadFrame for a bad marker, length or
// checksum, and any other error from the underlying reader unchanged.
func (r *Reader) Next() ([]byte, error) {
	r.start = r.off
	m, err := r.br.ReadByte()
	if err != nil {
		return nil, err
	}
	if m != r.marker {
		return nil, fmt.Errorf("%w: marker %#x", ErrBadFrame, m)
	}
	n, k, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n == 0 || n > r.max {
		return nil, fmt.Errorf("%w: payload length %d", ErrBadFrame, n)
	}
	need := int(n) + 4
	if cap(r.buf) < need {
		r.buf = make([]byte, need)
	}
	buf := r.buf[:need]
	if _, err := io.ReadFull(r.br, buf); err != nil {
		return nil, truncated(err)
	}
	payload := buf[:n]
	want := binary.LittleEndian.Uint32(buf[n:])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("%w: crc %08x, frame says %08x", ErrBadFrame, got, want)
	}
	r.off += int64(1 + k + need)
	return payload, nil
}

// uvarint reads the length prefix and reports how many bytes it took.
func (r *Reader) uvarint() (uint64, int, error) {
	var v uint64
	for i := 0; i < binary.MaxVarintLen64; i++ {
		b, err := r.br.ReadByte()
		if err != nil {
			return 0, 0, truncated(err)
		}
		if i == binary.MaxVarintLen64-1 && b > 1 {
			break
		}
		v |= uint64(b&0x7f) << (7 * i)
		if b < 0x80 {
			return v, i + 1, nil
		}
	}
	return 0, 0, fmt.Errorf("%w: length prefix overflows", ErrBadFrame)
}

// truncated maps an end of stream inside a frame to io.ErrUnexpectedEOF.
func truncated(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Decoder walks a frame payload with bounds checking. The first failed
// read latches Err and every later read returns zero, so a decode
// function chains reads and checks the error once.
type Decoder struct {
	b   []byte
	off int
	err error
}

// errShort reports a payload shorter than its fields claim.
var errShort = errors.New("frame: truncated payload")

// NewDecoder walks p from its first byte.
func NewDecoder(p []byte) Decoder { return Decoder{b: p} }

// Err is the latched error, nil while every read fit.
func (d *Decoder) Err() error { return d.err }

// Len is the number of bytes not yet read.
func (d *Decoder) Len() int { return len(d.b) - d.off }

func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Byte reads one byte.
func (d *Decoder) Byte() byte {
	if d.err != nil || d.off >= len(d.b) {
		d.fail(errShort)
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail(errShort)
		return 0
	}
	d.off += n
	return v
}

// Varint reads a zigzag-encoded signed varint.
func (d *Decoder) Varint() int64 {
	u := d.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Float64 reads raw little-endian float64 bits.
func (d *Decoder) Float64() float64 {
	if d.err != nil || d.Len() < 8 {
		d.fail(errShort)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.off:]))
	d.off += 8
	return v
}

// Count reads an element count and checks it against the bytes that
// remain, with minBytes the smallest encoded element, so a corrupt
// count cannot trigger a huge allocation.
func (d *Decoder) Count(minBytes int) int {
	v := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if v > uint64(d.Len())/uint64(minBytes)+1 {
		d.fail(errors.New("frame: implausible element count"))
		return 0
	}
	return int(v)
}

// AppendFloat64 appends the raw little-endian bits of f.
func AppendFloat64(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

// AppendVarint appends v zigzag-encoded as a uvarint, so small
// magnitudes of either sign encode short.
func AppendVarint(dst []byte, v int64) []byte {
	return binary.AppendUvarint(dst, uint64((v<<1)^(v>>63)))
}

// QuantMax is the millimetre saturation bound (~1.1e9 m, beyond any
// GPS quantity).
const QuantMax = 1 << 40

// Quant quantizes metres (or units) to millimetre (1/1000 unit) fixed
// point, saturating at ±QuantMax; NaN quantizes to 0.
func Quant(v float64) int64 {
	if math.IsNaN(v) {
		return 0
	}
	q := math.Round(v * 1000)
	if q > QuantMax {
		return QuantMax
	}
	if q < -QuantMax {
		return -QuantMax
	}
	return int64(q)
}

// Unquant inverts Quant.
func Unquant(q int64) float64 { return float64(q) / 1000 }
