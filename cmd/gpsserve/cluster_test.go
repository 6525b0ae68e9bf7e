// Cluster serving-tier lifecycle tests: the real run() with -wire and
// -session-ids, driven over real sockets — binary subscribe/resume
// semantics, the unknown-session verdict, the /cluster/* control plane
// on the admin mux, and the restore-outcome observability.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"gpsdl/internal/cluster"
	"gpsdl/internal/wire"
)

func waitHTTP(t *testing.T, url string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never answered: %v", url, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestServeWireClusterTier(t *testing.T) {
	if testing.Short() {
		t.Skip("network end-to-end")
	}
	nmeaAddr, wireAddr, adminAddr := freeAddr(t), freeAddr(t), freeAddr(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-addr", nmeaAddr, "-wire", wireAddr, "-admin", adminAddr,
			"-session-ids", "1,3", "-rate", "100", "-seed", "5",
		})
	}()
	admin := "http://" + adminAddr
	waitHTTP(t, admin+"/healthz")

	// Binary subscribe on a hosted session delivers strictly
	// consecutive epochs.
	cctx, ccancel := context.WithTimeout(ctx, 20*time.Second)
	defer ccancel()
	c := wire.DialSession(cctx, wire.ClientConfig{Addr: wireAddr, Session: 3, Resume: -1})
	var got []wire.Fix
	for len(got) < 20 {
		f, ok := <-c.Fixes()
		if !ok {
			t.Fatalf("client stopped after %d fixes: %v", len(got), c.Err())
		}
		got = append(got, f)
	}
	c.Close()
	for i := 1; i < len(got); i++ {
		if got[i].Epoch != got[i-1].Epoch+1 {
			t.Fatalf("stream hole: %d -> %d", got[i-1].Epoch, got[i].Epoch)
		}
	}

	// A reconnect presenting the resume token continues exactly one
	// epoch past the ack — no duplicates, no silent skips.
	ack := int64(got[len(got)-1].Epoch)
	c2 := wire.DialSession(cctx, wire.ClientConfig{Addr: wireAddr, Session: 3, Resume: ack})
	f, ok := <-c2.Fixes()
	if !ok {
		t.Fatalf("resumed client stopped: %v", c2.Err())
	}
	c2.Close()
	if f.Epoch != uint64(ack)+1 {
		t.Fatalf("resume with ack %d delivered epoch %d, want %d", ack, f.Epoch, ack+1)
	}

	// A session this node does not host is answered StatusUnknown
	// immediately — the documented verdict, not a hang.
	raw, err := net.Dial("tcp", wireAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := raw.Write(wire.AppendSubscribe(nil, 9, 123)); err != nil {
		t.Fatal(err)
	}
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	pl, err := wire.NewFrameReader(raw).Next()
	if err != nil {
		t.Fatal(err)
	}
	res, err := wire.DecodeResume(pl)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != wire.StatusUnknown {
		t.Fatalf("unhosted session answered status %d, want StatusUnknown", res.Status)
	}

	// The admin mux carries the cluster control plane and status block.
	resp, err := http.Get(admin + "/cluster/sessions")
	if err != nil {
		t.Fatal(err)
	}
	var sessions struct {
		Sessions []wire.SessionInfo `json:"sessions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sessions); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(sessions.Sessions) != 2 || sessions.Sessions[0].ID != 1 || sessions.Sessions[1].ID != 3 {
		t.Fatalf("/cluster/sessions = %+v, want ids 1 and 3", sessions.Sessions)
	}
	resp, err = http.Get(admin + "/debug/status")
	if err != nil {
		t.Fatal(err)
	}
	var status struct {
		Cluster *cluster.NodeStatus `json:"cluster"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if status.Cluster == nil || status.Cluster.Engines != 1 {
		t.Fatalf("/debug/status cluster block = %+v", status.Cluster)
	}

	// Graceful degradation end-to-end: a handoff with corrupt
	// checkpoint bytes cold-starts the session, reports the downgrade
	// on /healthz, and moves gps_restore_failures_total.
	hr, err := http.Post(admin+"/cluster/handoff?sessions=7&resume=50",
		"application/octet-stream", strings.NewReader("not a checkpoint"))
	if err != nil {
		t.Fatal(err)
	}
	var out cluster.RestoreOutcome
	if err := json.NewDecoder(hr.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if out.Outcome != "corrupt" {
		t.Fatalf("handoff outcome = %q, want corrupt", out.Outcome)
	}
	resp, err = http.Get(admin + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz struct {
		Restore *cluster.RestoreOutcome `json:"restore"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hz.Restore == nil || hz.Restore.Outcome != "corrupt" {
		t.Fatalf("/healthz restore block = %+v, want corrupt", hz.Restore)
	}
	resp, err = http.Get(admin + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(metrics, []byte("gps_restore_failures_total 1")) {
		t.Fatalf("/metrics missing gps_restore_failures_total 1:\n%s",
			firstMatching(metrics, "gps_restore_failures"))
	}
	if !bytes.Contains(metrics, []byte("gps_cluster_handoffs_total 1")) {
		t.Fatalf("/metrics missing gps_cluster_handoffs_total 1:\n%s",
			firstMatching(metrics, "gps_cluster"))
	}

	// The adopted session serves from its cold-start resume point.
	c3 := wire.DialSession(cctx, wire.ClientConfig{Addr: wireAddr, Session: 7, Resume: -1})
	f3, ok := <-c3.Fixes()
	if !ok {
		t.Fatalf("adopted session never served: %v", c3.Err())
	}
	c3.Close()
	if f3.Epoch < 50 {
		t.Fatalf("cold-started session served epoch %d before its resume point 50", f3.Epoch)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("run returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Error("server did not stop")
	}
}

// firstMatching extracts the metrics lines containing sub, for
// failure messages.
func firstMatching(metrics []byte, sub string) string {
	var hits []string
	for _, line := range strings.Split(string(metrics), "\n") {
		if strings.Contains(line, sub) {
			hits = append(hits, line)
		}
	}
	if len(hits) == 0 {
		return fmt.Sprintf("(no lines containing %q)", sub)
	}
	return strings.Join(hits, "\n")
}

// TestServeSessionIDsFlagErrors: the -session-ids grammar and the
// -receivers exclusivity are refused loudly.
func TestServeSessionIDsFlagErrors(t *testing.T) {
	for name, args := range map[string][]string{
		"with-receivers": {"-session-ids", "0,1", "-receivers", "2"},
		"bad-grammar":    {"-session-ids", "1,x"},
		"duplicate":      {"-session-ids", "2,2"},
		"dataset":        {"-session-ids", "0", "-dataset", "nope.json"},
	} {
		if err := run(context.Background(), args); err == nil {
			t.Errorf("%s: run accepted %v", name, args)
		}
	}
}
