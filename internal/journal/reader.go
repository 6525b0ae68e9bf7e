package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"gpsdl/internal/frame"
	"gpsdl/internal/geo"
)

// ErrBadHeader reports a file that is not a journal (wrong magic,
// unsupported version, or corrupt header metadata).
var ErrBadHeader = errors.New("journal: bad header")

// SyncPoint is a decoded FrameSync payload: the writer's cumulative
// state at the moment the sync frame was written.
type SyncPoint struct {
	MaxEpoch uint64
	Frames   uint64
	Records  uint64
}

// ScanResult is everything a full scan recovers from a journal file,
// including a possibly torn final frame.
type ScanResult struct {
	Meta       Meta
	Records    []Record
	Frames     int // complete record frames
	SyncPoints []SyncPoint

	// Torn reports that the scan stopped at an incomplete or
	// corrupt tail (truncated frame, CRC mismatch, or garbage after
	// the last complete frame). TornOffset is the file offset of the
	// first unrecoverable byte and TornReason describes why.
	Torn       bool
	TornOffset int64
	TornReason string
}

// ScanFile scans the journal at path. See Scan.
func ScanFile(path string) (*ScanResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Scan(f)
}

// ScanBytes scans an in-memory journal segment. See Scan.
func ScanBytes(b []byte) (*ScanResult, error) {
	return Scan(bytes.NewReader(b))
}

// Scan reads a journal from r until EOF or the first unrecoverable
// frame. A well-formed file yields Torn=false; a file truncated or
// corrupted anywhere inside its final frame yields every record from
// the complete frames plus exactly one torn tail at that frame's start.
// Only a broken header or an I/O error from r returns an error —
// frame-level damage is reported via ScanResult.
func Scan(r io.Reader) (*ScanResult, error) {
	res := &ScanResult{}
	fr, err := readHeader(r, &res.Meta)
	if err != nil {
		return nil, err
	}
	for {
		payload, err := fr.Next()
		switch {
		case err == io.EOF:
			return res, nil // clean end on a frame boundary
		case errors.Is(err, io.ErrUnexpectedEOF), errors.Is(err, frame.ErrBadFrame):
			res.tear(fr, err.Error())
			return res, nil
		case err != nil:
			return nil, err
		}
		switch payload[0] {
		case FrameRecords:
			recs, err := decodeRecords(payload)
			if err != nil {
				res.tear(fr, "undecodable record batch: "+err.Error())
				return res, nil
			}
			res.Records = append(res.Records, recs...)
			res.Frames++
		case FrameSync:
			sp, err := decodeSync(payload)
			if err != nil {
				res.tear(fr, "undecodable sync point: "+err.Error())
				return res, nil
			}
			res.SyncPoints = append(res.SyncPoints, sp)
		default:
			res.tear(fr, "unknown frame kind")
			return res, nil
		}
	}
}

// tear records the torn tail at the start of the frame fr last read.
func (res *ScanResult) tear(fr *frame.Reader, reason string) {
	res.Torn = true
	res.TornOffset = int64(len(magic)) + fr.Start()
	res.TornReason = reason
}

// readHeader checks the magic and decodes the header frame, whose
// marker is the format version, and returns the reader rebound to the
// record frames that follow.
func readHeader(r io.Reader, meta *Meta) (*frame.Reader, error) {
	var m [len(magic)]byte
	if _, err := io.ReadFull(r, m[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadHeader, err)
	}
	if m != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadHeader)
	}
	fr := frame.NewReader(r, Version, MaxFramePayload)
	mj, err := fr.Next()
	if err != nil {
		return nil, fmt.Errorf("%w: want a version %d header frame: %v", ErrBadHeader, Version, err)
	}
	if err := json.Unmarshal(mj, meta); err != nil {
		return nil, fmt.Errorf("%w: meta: %v", ErrBadHeader, err)
	}
	fr.Rebind(FrameMarker)
	return fr, nil
}

func decodeRecords(payload []byte) ([]Record, error) {
	d := frame.NewDecoder(payload)
	d.Byte()    // kind, already known
	d.Uvarint() // shard (informational)
	base := d.Uvarint()
	n := d.Count(6)
	if d.Err() != nil {
		return nil, d.Err()
	}
	recs := make([]Record, 0, n)
	for i := 0; i < n; i++ {
		var r Record
		r.Receiver = int(d.Uvarint())
		r.Epoch = base + d.Uvarint()
		r.Flags = uint32(d.Uvarint())
		r.State = d.Byte()
		r.Chain = d.Byte()
		r.Solver = d.Byte()
		if r.Flags&FlagFix != 0 {
			r.Pos = geo.ECEF{X: d.Float64(), Y: d.Float64(), Z: d.Float64()}
			r.ClockBias = d.Float64()
		}
		if r.Flags&FlagRMS != 0 {
			r.RMS = frame.Unquant(int64(d.Uvarint()))
		}
		if r.Flags&FlagDOP != 0 {
			r.PDOP = frame.Unquant(int64(d.Uvarint()))
			r.HDOP = frame.Unquant(int64(d.Uvarint()))
		}
		if r.Flags&FlagClock != 0 {
			r.ClockInnov = frame.Unquant(d.Varint())
		}
		if r.Flags&FlagExcluded != 0 {
			r.ExcludedPRN = int(d.Uvarint())
		}
		nres := d.Count(2)
		if nres > 0 && d.Err() == nil {
			r.Residuals = make([]SatResidual, nres)
			for j := 0; j < nres; j++ {
				r.Residuals[j].PRN = int(d.Uvarint())
				r.Residuals[j].Meters = frame.Unquant(d.Varint())
			}
		}
		if r.Flags&FlagObs != 0 {
			r.PredBias = d.Float64()
			nobs := d.Count(41)
			if nobs > 0 && d.Err() == nil {
				r.Obs = make([]CapturedObs, nobs)
				for j := 0; j < nobs; j++ {
					o := &r.Obs[j]
					o.PRN = int(d.Uvarint())
					o.Pos = geo.ECEF{X: d.Float64(), Y: d.Float64(), Z: d.Float64()}
					o.Pseudorange = d.Float64()
					o.Elevation = d.Float64()
				}
			}
		}
		if d.Err() != nil {
			return nil, d.Err()
		}
		recs = append(recs, r)
	}
	if d.Len() != 0 {
		return nil, errors.New("trailing bytes in record batch")
	}
	return recs, nil
}

func decodeSync(payload []byte) (SyncPoint, error) {
	d := frame.NewDecoder(payload)
	d.Byte() // kind, already known
	sp := SyncPoint{
		MaxEpoch: d.Uvarint(),
		Frames:   d.Uvarint(),
		Records:  d.Uvarint(),
	}
	if d.Err() != nil {
		return sp, d.Err()
	}
	if d.Len() != 0 {
		return sp, errors.New("trailing bytes in sync point")
	}
	return sp, nil
}
