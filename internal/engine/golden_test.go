package engine

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	"gpsdl/internal/fault"
)

// goldenFaultSpec is gpsbench's reference adversarial program
// (defaultFaultSpec in cmd/gpsbench/faults.go): dropout, RAIM-bait step,
// ramp, burst, clock jump, occlusion below four satellites, two-satellite
// spoof and jam over one 600 s span.
const goldenFaultSpec = "drop:prn=7,from=60,until=180;" +
	"step:prn=12,bias=350,from=120,until=240;" +
	"ramp:prn=5,rate=2,from=150,until=300;" +
	"burst:sigma=10,from=200,until=280;" +
	"clockjump:at=260,bias=2e-4;" +
	"shrink:n=3,from=320,until=380;" +
	"spoof:n=2,bias=300,from=400,until=480;" +
	"jam:sigma=15,from=500,until=560"

const (
	goldenReceivers = 8
	goldenEpochs    = 1500
	goldenFixture   = "testdata/golden_stream.sha256"
)

// goldenRun is what one engine run contributes to the golden digest.
type goldenRun struct {
	digest                     string
	events                     int
	coasts, fallbacks, raimExc int
}

// streamDigest runs a live-generating engine (epoch cache on) and hashes
// every event's GGA, RMC and the float64 bits of Sol.Pos, Sol.ClockBias
// and HDOP, per receiver in epoch order. The result is SHA-256 over the
// concatenated per-receiver digests, so shard interleaving cannot move it.
func streamDigest(t *testing.T, cfg Config) goldenRun {
	t.Helper()
	hs := make([]hash.Hash, cfg.Receivers)
	for r := range hs {
		hs[r] = sha256.New()
	}
	var run goldenRun
	var mu sync.Mutex
	var bits [5 * 8]byte
	cfg.Sink = func(e FixEvent) {
		mu.Lock()
		defer mu.Unlock()
		run.events++
		if e.Coast {
			run.coasts++
		}
		if e.Err == nil && !e.Coast && e.Solver != "DLG-fast" {
			run.fallbacks++
		}
		if e.Excluded >= 0 {
			run.raimExc++
		}
		h := hs[e.Receiver]
		h.Write(e.GGA)
		h.Write(e.RMC)
		for k, v := range []float64{e.Sol.Pos.X, e.Sol.Pos.Y, e.Sol.Pos.Z, e.Sol.ClockBias, e.HDOP} {
			binary.LittleEndian.PutUint64(bits[8*k:], math.Float64bits(v))
		}
		h.Write(bits[:])
	}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(context.Background(), goldenEpochs); err != nil {
		t.Fatal(err)
	}
	all := sha256.New()
	for _, h := range hs {
		all.Write(h.Sum(nil))
	}
	run.digest = hex.EncodeToString(all.Sum(nil))
	return run
}

// goldenConfigs are the two pinned runs: engine defaults on a clean sky,
// and the reference fault program with C/N0 weighting and the disruption
// detector, where RAIM, the fallback chain and coasting all run.
func goldenConfigs(t *testing.T) map[string]Config {
	t.Helper()
	prog, err := fault.ParseSpec(goldenFaultSpec)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{Receivers: goldenReceivers, Workers: 2, Seed: 1}
	faulted := base
	faulted.Faults = prog
	faulted.FaultSeed = 1
	faulted.Weighting = true
	faulted.Disruption = true
	return map[string]Config{"clean": base, "faulted": faulted}
}

// readGolden parses the fixture: one "name hexdigest" pair per line.
func readGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenFixture)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, digest, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", goldenFixture, line)
		}
		want[name] = strings.TrimSpace(digest)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestGoldenEngineStream pins the engine's output stream bit for bit:
// 8 receivers × 1500 live epochs, clean and under the reference fault
// program. Any change to generation, solving, DOP or NMEA text that moves
// a single byte or float bit fails here. The fixture is refreshed only
// for a deliberate output change.
func TestGoldenEngineStream(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digest is pinned on amd64; on %s the compiler may fuse multiply-adds and legally move float bits", runtime.GOARCH)
	}
	want := readGolden(t)
	for _, name := range []string{"clean", "faulted"} {
		cfg := goldenConfigs(t)[name]
		run := streamDigest(t, cfg)
		if run.events != goldenReceivers*goldenEpochs {
			t.Fatalf("%s: %d events, want %d", name, run.events, goldenReceivers*goldenEpochs)
		}
		if name == "faulted" && (run.coasts == 0 || run.fallbacks == 0 || run.raimExc == 0) {
			t.Fatalf("faulted run did not exercise every path: %d coasts, %d fallback fixes, %d RAIM exclusions",
				run.coasts, run.fallbacks, run.raimExc)
		}
		if run.digest != want[name] {
			t.Errorf("%s stream digest %s, want %s (%s)", name, run.digest, want[name], goldenFixture)
		}
	}
}
