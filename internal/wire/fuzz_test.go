package wire

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// framePayloads strips the envelopes off a framed byte stream, for
// seeding the payload decoders with round-tripped frames.
func framePayloads(tb testing.TB, stream []byte) [][]byte {
	tb.Helper()
	fr := NewFrameReader(bytes.NewReader(stream))
	var out [][]byte
	for {
		p, err := fr.Next()
		if err != nil {
			return out
		}
		out = append(out, append([]byte(nil), p...))
	}
}

// FuzzDecodeSubscribe: the server decodes a SUBSCRIBE from every
// connecting client. Arbitrary payloads must never panic, and an
// accepted token re-encodes to a payload that decodes to the same token.
func FuzzDecodeSubscribe(f *testing.F) {
	for _, tok := range []struct {
		session int
		ack     int64
	}{{0, -1}, {3, 0}, {17, 12345}, {1 << 20, 1<<40 + 7}} {
		for _, p := range framePayloads(f, AppendSubscribe(nil, tok.session, tok.ack)) {
			f.Add(p)
		}
	}
	f.Add([]byte{KindSubscribe})
	f.Add([]byte{KindSubscribe, Version + 1, 0, 1})
	f.Fuzz(func(t *testing.T, p []byte) {
		s, err := DecodeSubscribe(p)
		if err != nil {
			return
		}
		again := framePayloads(t, AppendSubscribe(nil, s.Session, s.Ack))
		if len(again) != 1 {
			t.Fatalf("re-encoded subscribe produced %d frames", len(again))
		}
		s2, err := DecodeSubscribe(again[0])
		if err != nil || s2 != s {
			t.Fatalf("subscribe round trip: %+v -> %+v, %v", s, s2, err)
		}
	})
}

// FuzzDecodeResume: clients and the proxy decode the server's RESUME
// verdict. Arbitrary payloads must never panic, and an accepted verdict
// survives a re-encode unchanged.
func FuzzDecodeResume(f *testing.F) {
	for _, r := range []Resume{
		{Session: 2, Status: StatusLive, Resume: 0, Head: -1},
		{Session: 5, Status: StatusReplay, Resume: 101, Head: 180},
		{Session: 9, Status: StatusGap, Resume: 1 << 33, Head: 1<<33 + 40},
		{Session: 0, Status: StatusUnknown},
	} {
		for _, p := range framePayloads(f, AppendResume(nil, r)) {
			f.Add(p)
		}
	}
	f.Add([]byte{KindResume, 0x80})
	f.Fuzz(func(t *testing.T, p []byte) {
		r, err := DecodeResume(p)
		if err != nil {
			return
		}
		again := framePayloads(t, AppendResume(nil, r))
		if len(again) != 1 {
			t.Fatalf("re-encoded resume produced %d frames", len(again))
		}
		r2, err := DecodeResume(again[0])
		if err != nil || r2 != r {
			t.Fatalf("resume round trip: %+v -> %+v, %v", r, r2, err)
		}
	})
}

// fixStream encodes a walk of fixes for one session — keyframes, deltas
// and misses — as a framed stream.
func fixStream(epochs int) []byte {
	var enc FixEncoder
	var buf []byte
	for e := uint64(0); e < uint64(epochs); e++ {
		fx := synthFix(4, e)
		if e%9 == 5 {
			fx = Fix{Session: 4, Epoch: e, Miss: true, State: 2, Solver: 1}
		}
		buf, _ = enc.AppendFix(buf, &fx)
	}
	return buf
}

// FuzzPeekFix: the proxy routes relayed FIX frames by PeekFix without
// decoding them. Arbitrary payloads must never panic, and whenever a
// full decode accepts a payload, the peek agrees with it on session,
// epoch and keyframe.
func FuzzPeekFix(f *testing.F) {
	for _, p := range framePayloads(f, fixStream(40)) {
		f.Add(p)
	}
	f.Add([]byte{KindFix, 0x80})
	f.Fuzz(func(t *testing.T, p []byte) {
		session, epoch, key, perr := PeekFix(p)
		var dec FixDecoder
		fx, err := dec.DecodeFix(p)
		if err != nil {
			return
		}
		if perr != nil {
			t.Fatalf("DecodeFix accepted a payload PeekFix rejects: %v", perr)
		}
		if fx.Session != session || fx.Epoch != epoch {
			t.Fatalf("peek (%d, %d) disagrees with decode (%d, %d)", session, epoch, fx.Session, fx.Epoch)
		}
		if !fx.Miss && !key {
			t.Fatal("a fresh decoder accepted a delta fix the peek calls a delta")
		}
	})
}

// splitPayloads reads length-prefixed payloads (one length byte, then
// that many bytes) — the fuzz input format for the decoder chain, which
// lets mutations reach the decoder instead of dying at the envelope CRC.
func splitPayloads(data []byte) [][]byte {
	var out [][]byte
	for len(data) > 0 {
		n := int(data[0])
		data = data[1:]
		if n > len(data) {
			n = len(data)
		}
		out = append(out, data[:n])
		data = data[n:]
	}
	return out
}

// FuzzFixDecoderChain drives one stateful FixDecoder through a sequence
// of FIX payloads, as a subscriber does. No sequence may panic; a delta
// is refused only before the first keyframe; and decoding is a pure
// function of the payload sequence.
func FuzzFixDecoderChain(f *testing.F) {
	var seed []byte
	for _, p := range framePayloads(f, fixStream(80)) {
		seed = append(append(seed, byte(len(p))), p...)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add([]byte{3, KindFix, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		payloads := splitPayloads(data)
		decode := func() []string {
			var dec FixDecoder
			var out []string
			keyed := false
			for _, p := range payloads {
				fx, err := dec.DecodeFix(p)
				if errors.Is(err, ErrDeltaWithoutKeyframe) && keyed {
					t.Fatal("delta refused after a keyframe primed the chain")
				}
				if err != nil {
					out = append(out, err.Error())
					continue
				}
				if !fx.Miss && len(p) > 0 {
					_, _, key, _ := PeekFix(p)
					keyed = keyed || key
				}
				out = append(out, fmt.Sprintf("%+v", fx))
			}
			return out
		}
		a, b := decode(), decode()
		if len(a) != len(b) {
			t.Fatalf("decode lengths differ: %d vs %d", len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("payload %d decodes differently on replay: %s vs %s", i, a[i], b[i])
			}
		}
	})
}
