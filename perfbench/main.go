// Command perfbench is the repository benchmark. It drives the fix
// engine and the serving tier from outside, through the public
// functions of internal/engine, scenario, epochcache, fault, clock,
// core, quality, slo, nmea, journal, wire and cluster, on three seeded
// workloads:
//
//	replay-clean    pregenerated epochs, engine defaults (the solve path)
//	replay-faulted  the same epochs under the reference fault program,
//	                with weighting, disruption, quality/SLO and journal on
//	serve-wire      256 live sessions paced at 50 ticks/s, fanned out over
//	                the wire hub to a direct and a proxied client
//
// Usage:
//
//	perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// is the separate traced run that prints the per-layer metrics, checks
// that a replica of the engine's per-epoch step reproduces the engine's
// fixes bit for bit, and writes the recorded spans to --out. Both print
// a human-readable table and, as the last line of standard output, one
// JSON object {"correct", "attempted", "failed", "metrics"}. A run whose
// output checks fail prints correct=false with no metrics and exits 1.
// See NOTES.md for why each workload exists and what each metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// endToEnd names the metrics every --trace 0 run reports, in
// BENCHMARK.json order.
//
// The _p99 latencies are printed but not listed: on serve-wire they are
// set by the few ticks a GC mark phase overlaps, and their spread over
// ten seeds (0.19–0.25 of the median) leaves no room under the largest
// bound a metric may have.
var endToEnd = []string{
	"fixes_per_cpu_s",
	"fix_latency_ms_p50", "deliver_ms_p50", "deliver_proxy_ms_p50",
	"served_fix_pct",
	"pos_err_m_p50", "pos_err_m_p95",
	"setup_s", "heap_mb",
}

// perLayer names the per-layer metrics every --trace 1 run reports in
// its JSON line: the ones every workload exercises. Workload-specific
// layer metrics (fault, quality, journal, wire, cluster, paced dispatch)
// are printed in the table of the workloads that run those layers.
var perLayer = []string{
	"engine.step_ns", "engine.alloc_b_per_fix", "engine.gc_cycles",
	"scenario.epoch_at_ns", "scenario.sats_per_epoch",
	"epochcache.at_ns", "epochcache.hit_ratio",
	"clock.observe_ns",
	"core.nr_feed_ns", "core.chain_ns", "core.dop_ns",
	"core.chain_attempts_per_fix", "core.fallback_ratio",
	"core.raim_exclusions", "core.coast_ratio",
	"core.solve_share_pct", "core.theta_solve_pct",
	"nmea.encode_ns", "nmea.bytes_per_fix",
	"trace.overhead_pct",
}

// options are the parsed command-line arguments.
type options struct {
	workload  string
	seed      int64
	faultSeed int64
	seconds   time.Duration
	traced    bool
	outDir    string
	log       io.Writer // progress notes (standard error)
}

// metric is one reported number. detail carries the sample count and
// tail percentile for the table.
type metric struct {
	name   string
	unit   string
	value  float64
	detail string
}

// result is what a workload run hands back: the failed output checks,
// the ledger of due operations, and the metrics.
type result struct {
	failed  []string
	ledger  Ledger
	metrics []metric
}

func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.failed = append(r.failed, fmt.Sprintf(format, args...))
	}
}

func (r *result) add(name, unit string, value float64, detail string) {
	r.metrics = append(r.metrics, metric{name, unit, value, detail})
}

// addTiming adds a timing under name with its sample count and tail.
func (r *result) addTiming(name, unit string, s Summary) {
	r.add(name, unit, s.Median, s.String())
}

type workload struct {
	why string
	run func(options) (*result, error)
}

var workloads = map[string]workload{
	"replay-clean": {
		why: "pregenerated epochs with engine defaults: the per-fix solve path alone",
		run: func(o options) (*result, error) { return runReplay(o, false) },
	},
	"replay-faulted": {
		why: "the same epochs under the reference fault program with every solve-path and quality layer on",
		run: func(o options) (*result, error) { return runReplay(o, true) },
	},
	"serve-wire": {
		why: "live open-loop serving at 12.8k fixes/s through the wire hub, TCP and the proxy",
		run: runServe,
	},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "scenario seed the workload's inputs are generated from")
	faultSeed := fs.Int64("fault-seed", 0, "fault-injector seed (0 derives it from --seed)")
	seconds := fs.Float64("seconds", 24, "measurement time in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	outDir := fs.String("out", ".bench_out", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	o := options{
		workload:  *name,
		seed:      *seed,
		faultSeed: *faultSeed,
		seconds:   time.Duration(*seconds * float64(time.Second)),
		traced:    *trace == 1,
		outDir:    *outDir,
		log:       stderr,
	}
	if o.faultSeed == 0 {
		o.faultSeed = o.seed ^ 0x5eed
	}
	fmt.Fprintf(stdout, "# perfbench %s seed=%d fault-seed=%d seconds=%g trace=%d: %s\n",
		o.workload, o.seed, o.faultSeed, *seconds, *trace, w.why)
	res, err := w.run(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	want := endToEnd
	if o.traced {
		want = perLayer
	}
	return report(stdout, stderr, res, want)
}

// report prints the table and the JSON result line. Metrics are only
// reported when every output check passed.
func report(stdout, stderr io.Writer, res *result, want []string) int {
	for _, m := range res.metrics {
		fmt.Fprintf(stdout, "%-28s %14.6g %-6s %s\n", m.name, m.value, m.unit, m.detail)
	}
	fmt.Fprintf(stdout, "%-28s %s missed_fix_pct=%.4g failed=%d\n", "ledger", res.ledger, res.ledger.MissedPct(), res.ledger.Failed())
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted uint64                `json:"attempted"`
		Failed    uint64                `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{
		Correct:   len(res.failed) == 0,
		Attempted: res.ledger.Due(),
		Failed:    res.ledger.Failed(),
		Metrics:   map[string]jsonMetric{},
	}
	if out.Correct {
		have := map[string]metric{}
		for _, m := range res.metrics {
			have[m.name] = m
		}
		for _, name := range want {
			m, ok := have[name]
			if !ok {
				fmt.Fprintf(stderr, "perfbench: metric %s was not measured\n", name)
				return 1
			}
			out.Metrics[name] = jsonMetric{m.value, m.unit}
		}
	}
	for _, f := range res.failed {
		fmt.Fprintf(stdout, "CHECK FAILED: %s\n", f)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// t0 anchors nanotime; time.Since reads the monotonic clock.
var t0 = time.Now()

// nanotime is the monotonic time in ns since start-up.
func nanotime() int64 { return int64(time.Since(t0)) }
