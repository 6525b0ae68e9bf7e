package journal

import (
	"bytes"
	"encoding/hex"
	"math"
	"os"
	"strings"
	"testing"

	"gpsdl/internal/geo"
)

// goldenJournal writes a fixed journal that exercises every record
// field group, signed and saturating quantization, and sync frames.
func goldenJournal(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	meta := testMeta()
	meta.CaptureEvery = 4
	meta.Created = "2010-06-21T00:00:00Z"
	w, err := NewWriter(&buf, meta, Options{SyncEvery: 2, TailFrames: -1})
	if err != nil {
		t.Fatal(err)
	}
	all := uint32(FlagFix | FlagCoast | FlagSuspect | FlagExcluded | FlagRMS |
		FlagChi2Valid | FlagChi2Pass | FlagDOP | FlagClock | FlagObs | FlagStateChange)
	batches := [][]Record{
		{
			makeRecord(0, 100, true),
			makeRecord(1, 100, false),
			{Receiver: 2, Epoch: 101, State: 4, Solver: SolverIndex("coast")},
		},
		{
			{
				Receiver: 0, Epoch: 102, Flags: all, State: 2, Chain: 1, Solver: SolverIndex("DLG-fast"),
				Pos:       geo.ECEF{X: math.Inf(1), Y: math.NaN(), Z: -0.0},
				ClockBias: math.Inf(-1),
				RMS:       math.Inf(1), PDOP: math.NaN(), HDOP: -3,
				ClockInnov:  math.Inf(-1),
				ExcludedPRN: 31,
				Residuals: []SatResidual{
					{PRN: 1, Meters: math.NaN()}, {PRN: 2, Meters: -1e300}, {PRN: 3, Meters: 1e300},
					{PRN: 4, Meters: -0.0005}, {PRN: 5, Meters: -12.3456},
				},
				PredBias: -2.5e-4,
				Obs: []CapturedObs{
					{PRN: 32, Pos: geo.ECEF{X: 2.6e7, Y: -1, Z: 0}, Pseudorange: math.MaxFloat64, Elevation: -0.1},
				},
			},
			{Receiver: 1 << 20, Epoch: 1<<40 + 102, Flags: FlagFix | FlagClock, ClockInnov: -1234.5678,
				Pos: geo.ECEF{X: 1, Y: 2, Z: 3}, ClockBias: -7},
		},
		{makeRecord(2, 1<<40+103, true)},
	}
	var enc Encoder
	for shard, recs := range batches {
		enc.Begin(shard, recs[0].Epoch)
		maxEpoch := uint64(0)
		for i := range recs {
			enc.Add(&recs[i])
			maxEpoch = max(maxEpoch, recs[i].Epoch)
		}
		if err := w.WriteRecords(enc.Payload(), enc.Count(), maxEpoch); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// readHexFixture decodes a hex fixture, ignoring whitespace.
func readHexFixture(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b, err := hex.DecodeString(strings.Join(strings.Fields(string(raw)), ""))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return b
}

// TestGoldenBytes pins the on-disk format byte for byte: the header,
// record frames covering every flag group, negative and saturating
// quantized scalars, and sync frames. A format change must bump
// Version and refresh testdata/golden.hex deliberately.
func TestGoldenBytes(t *testing.T) {
	if Version != 1 || FrameMarker != 0xA7 {
		t.Fatalf("format constants changed: version %d marker %#x", Version, FrameMarker)
	}
	got := goldenJournal(t)
	want := readHexFixture(t, "testdata/golden.hex")
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("journal bytes differ from testdata/golden.hex at offset %d (got %d bytes, want %d)", i, len(got), len(want))
	}
	res, err := ScanBytes(got)
	if err != nil || res.Torn || len(res.Records) != 6 || len(res.SyncPoints) != 2 {
		t.Fatalf("golden journal does not scan cleanly: %v %+v", err, res)
	}
}
