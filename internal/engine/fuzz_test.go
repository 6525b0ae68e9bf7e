package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"testing"

	"gpsdl/internal/checkpoint"
)

// adoptIDs are the sessions a survivor node hosts in the adoption
// harness: a subset of the source node's receivers.
var adoptIDs = []int{1, 3}

// reframeCheckpoint wraps a (possibly mutated) JSON body in a fresh
// checkpoint header with a matching CRC, in checkpoint.Encode's format,
// so fuzzed bodies get past the checksum to the semantic checks.
func reframeCheckpoint(body []byte) []byte {
	hdr := fmt.Sprintf("GPSCKPT %d %08x %d\n", checkpoint.Version, crc32.ChecksumIEEE(body), len(body))
	return append([]byte(hdr), body...)
}

// FuzzAdoptCheckpoint drives the /cluster/handoff adoption chain —
// checkpoint.Decode, State.Filter to the survivor's sessions, and
// Engine.Restore into a small survivor engine — with mutated checkpoint
// bodies behind a valid header and CRC. No body may panic, and a
// restore that succeeds adopts at most one record per hosted session.
func FuzzAdoptCheckpoint(f *testing.F) {
	src, err := New(Config{Receivers: 4, Seed: 42})
	if err != nil {
		f.Fatal(err)
	}
	if err := src.Run(context.Background(), 12); err != nil {
		f.Fatal(err)
	}
	st := src.SnapshotFinal()
	body, err := json.Marshal(st)
	if err != nil {
		f.Fatal(err)
	}
	enc, err := checkpoint.Encode(st)
	if err != nil {
		f.Fatal(err)
	}
	if !bytes.Equal(reframeCheckpoint(body), enc) {
		f.Fatal("harness header drifted from checkpoint.Encode's format")
	}
	f.Add(body)
	f.Add([]byte(`{"sessions":[{"receiver":1,"clock":{"kind":"kalman"}}]}`))
	f.Add([]byte(`null`))

	f.Fuzz(func(t *testing.T, body []byte) {
		st, err := checkpoint.Decode(reframeCheckpoint(body))
		if err != nil {
			return
		}
		e, err := New(Config{SessionIDs: adoptIDs, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		n, err := e.Restore(st.Filter(adoptIDs))
		if err != nil {
			return
		}
		if n > len(adoptIDs) {
			t.Fatalf("restored %d sessions into an engine hosting %d", n, len(adoptIDs))
		}
		if e.ResumeEpoch() < 0 {
			t.Fatalf("restore accepted resume epoch %d", e.ResumeEpoch())
		}
	})
}
