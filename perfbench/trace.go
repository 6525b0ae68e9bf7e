package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
)

// Stage names of recorded spans. The replica's stages are children of
// the replica.step span with the same id; engine and wire spans are
// recorded at the sink and client boundaries of the real engine.
const (
	stStep = iota
	stEpochAt
	stCacheAt
	stFault
	stDisrupt
	stNRFeed
	stObserve
	stPredict
	stChain
	stDOP
	stAssess
	stQuality
	stSLO
	stJournalEncode
	stNMEA
	stJournalWrite
	stEngineStep
	stEngineSink
	stDispatch
	stPublish
	stWireHop
	stProxyHop
	numStages
)

var stageNames = [numStages]string{
	"replica.step", "scenario.epoch_at", "epochcache.at", "fault.apply",
	"core.disrupt", "core.nr_feed", "clock.observe", "clock.predict",
	"core.chain", "core.dop", "core.assess", "quality.observe",
	"slo.observe", "journal.encode", "nmea.encode", "journal.write",
	"engine.step", "engine.sink", "engine.dispatch", "wire.publish",
	"wire.hop", "cluster.proxy_hop",
}

// stageParent is each stage's parent span name; spans of one
// session-epoch share an id, so a child's parent is the span of the
// parent stage with the same id.
var stageParent = [numStages]int{
	stStep: -1, stEpochAt: stStep, stCacheAt: -1, stFault: stStep,
	stDisrupt: stStep, stNRFeed: stStep, stObserve: stStep, stPredict: stStep,
	stChain: stStep, stDOP: stStep, stAssess: stStep, stQuality: stStep,
	stSLO: stStep, stJournalEncode: stStep, stNMEA: stStep, stJournalWrite: -1,
	stEngineStep: -1, stEngineSink: -1, stDispatch: -1, stPublish: stEngineSink,
	stWireHop: -1, stProxyHop: stWireHop,
}

// span is one recorded interval. id names the session-epoch
// (receiver·epochs + epoch) or, for journal.write, the flushed batch.
type span struct {
	id         uint32
	stage      uint8
	start, end int64
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct{ spans []span }

// A nil *tracer records nothing and reads no clock, so an untraced
// replica runs the same code without the instrumentation's cost.

// now opens a span.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return nanotime()
}

// since closes a span opened at start.
func (t *tracer) since(stage int, id uint32, start int64) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{id, uint8(stage), start, nanotime()})
}

func (t *tracer) add(stage int, id uint32, start, end int64) {
	t.spans = append(t.spans, span{id, uint8(stage), start, end})
}

// write stores the spans as tab-separated id, parent, name, start_ns,
// end_ns under dir and returns the path.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".tsv")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "id\tparent\tname\tstart_ns\tend_ns")
	for _, s := range t.spans {
		parent := "-"
		if p := stageParent[s.stage]; p >= 0 {
			parent = stageNames[p]
		}
		fmt.Fprintf(w, "%d\t%s\t%s\t%d\t%d\n", s.id, parent, stageNames[s.stage], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
