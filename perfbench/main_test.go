package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestMetricListsMatchBenchmarkJSON keeps the metric names the runs
// print in step with the declaration the runs are judged by.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	names := func(list []struct{ Name string }) []string {
		var out []string
		for _, m := range list {
			out = append(out, m.Name)
		}
		return out
	}
	if got := names(b.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("end_to_end %v, perfbench reports %v", got, endToEnd)
	}
	if got := names(b.PerLayer); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("per_layer %v, perfbench reports %v", got, perLayer)
	}
	got := names(b.Workloads)
	if want := workloadNames(); !reflect.DeepEqual(got, want) {
		t.Errorf("workloads %v, perfbench runs %v", got, want)
	}
}

// TestTileFaultsRepeatsEachPeriod checks the tiled program carries the
// same clauses, shifted and clipped, in every period.
func TestTileFaultsRepeatsEachPeriod(t *testing.T) {
	prog, err := parseReference()
	if err != nil {
		t.Fatal(err)
	}
	tiled := tileFaults(prog, faultPeriod, 3*faultPeriod)
	if len(tiled) != 3*len(prog) {
		t.Fatalf("%d clauses, want %d", len(tiled), 3*len(prog))
	}
	for k := 0; k < 3; k++ {
		base := float64(k * faultPeriod)
		for i, c := range tiled[k*len(prog) : (k+1)*len(prog)] {
			if c.Kind != prog[i].Kind || c.From != prog[i].From+base {
				t.Errorf("period %d clause %d: %+v, from %+v", k, i, c, prog[i])
			}
			if c.Until > base+faultPeriod {
				t.Errorf("period %d clause %d runs past its period: until %v", k, i, c.Until)
			}
		}
	}
}
