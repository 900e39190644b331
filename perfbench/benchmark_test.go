package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and perfbench's
// metric and workload tables in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricJSON `json:"end_to_end"`
		PerLayer  []metricJSON `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("workloads %v, perfbench has %v", names, want)
	}
	for _, c := range []struct {
		kind   string
		listed []metricJSON
		tables []metric
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		var got []metric
		for _, m := range c.listed {
			got = append(got, metric{m.Name, m.Unit, m.Better})
		}
		if !slices.Equal(got, c.tables) {
			t.Errorf("%s differs from perfbench:\n%v\n%v", c.kind, got, c.tables)
		}
	}
}

type metricJSON struct{ Name, Unit, Better string }

func TestBucketOf(t *testing.T) {
	set := map[string]bool{"flownet": true, "campaign": true, "runpool": true}
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.mallocgc", "ensembleio/internal/flownet.(*Port).distribute", "ensembleio/internal/sim.(*Engine).Run"}, "flownet"},
		{[]string{"ensembleio/internal/ensemble/campaign.Run.func1", "ensembleio/internal/runpool.Map[...]"}, "campaign"},
		{[]string{"ensembleio/internal/faults.(*Scenario).Windows"}, "other"},
		{[]string{"ensembleio.Durations.func1", "main.main"}, "other"},
		{[]string{"crypto/sha256.block", "main.digest"}, "bench"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "host.gc"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "host.sched"},
	} {
		if got := bucketOf(c.frames, set); got != c.want {
			t.Errorf("bucketOf(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
	if q := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); q != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles = %v", q)
	}
	// statistics.quantiles([1, 2, 4], n=4)
	if q := quartiles([]float64{4, 1, 2}); q != [3]float64{1, 2, 4} {
		t.Errorf("quartiles = %v", q)
	}
}
