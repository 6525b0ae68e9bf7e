package wire

import (
	"bytes"
	"encoding/hex"
	"math"
	"os"
	"strings"
	"testing"
)

// goldenStream encodes a fixed protocol exchange: SUBSCRIBE and RESUME
// control frames, then one session's keyframes, deltas and misses,
// including a saturating non-finite fix.
func goldenStream() []byte {
	var b []byte
	b = AppendSubscribe(b, 7, -1)
	b = AppendSubscribe(b, 1<<20, 1<<40+7)
	b = AppendResume(b, Resume{Session: 7, Status: StatusLive, Resume: 0, Head: -1})
	b = AppendResume(b, Resume{Session: 7, Status: StatusReplay, Resume: 101, Head: 180})
	b = AppendResume(b, Resume{Session: 9, Status: StatusUnknown})
	enc := FixEncoder{KeyframeEvery: 4}
	fixes := []Fix{
		{Session: 7, Epoch: 6, X: -2148744.123, Y: 4426641.2, Z: 4044655.9, ClockBias: 12345.6789, HDOP: 1.25, Sats: 8, State: 0, Solver: 7},
		{Session: 7, Epoch: 7, X: -2148744.001, Y: 4426641.0, Z: 4044656.5, ClockBias: 12344.0, HDOP: 1.5, Sats: 9, Solver: 7, Coast: true},
		{Session: 7, Epoch: 8, Miss: true, State: 2, Solver: 1, Sats: 3},
		{Session: 7, Epoch: 9, X: -2148743.5, Y: 4426640.25, Z: 4044657, ClockBias: 12343.5, HDOP: 1.75, Sats: 7, State: 1, Solver: 2, Suspect: true, Degraded: true},
		{Session: 7, Epoch: 10, X: -2148760, Y: 4426600, Z: 4044600, ClockBias: -0.0004, HDOP: 2, Sats: 6, Solver: 1},
		{Session: 7, Epoch: 12, X: math.Inf(1), Y: math.NaN(), Z: -1e300, ClockBias: math.Inf(-1), HDOP: 99.9995, Sats: 4, State: 1, Solver: 1},
		{Session: 7, Epoch: 13, X: 1, Y: -2, Z: 3, ClockBias: -4, HDOP: 0.5, Sats: 12, Solver: 7},
	}
	for i := range fixes {
		b, _ = enc.AppendFix(b, &fixes[i])
	}
	return b
}

// TestGoldenBytes pins the wire format byte for byte. A format change
// must bump Version and refresh testdata/golden.hex deliberately.
func TestGoldenBytes(t *testing.T) {
	if Version != 1 || FrameMarker != 0xB5 {
		t.Fatalf("protocol constants changed: version %d marker %#x", Version, FrameMarker)
	}
	raw, err := os.ReadFile("testdata/golden.hex")
	if err != nil {
		t.Fatal(err)
	}
	want, err := hex.DecodeString(strings.Join(strings.Fields(string(raw)), ""))
	if err != nil {
		t.Fatal(err)
	}
	got := goldenStream()
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("wire bytes differ from testdata/golden.hex at offset %d (got %d bytes, want %d)", i, len(got), len(want))
	}
}
