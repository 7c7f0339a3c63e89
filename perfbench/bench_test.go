package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/experiment"
	"repro/internal/mining"
)

// TestMetricListsMatchBenchmarkJSON keeps the program's workload and
// metric lists in step with BENCHMARK.json at the repository root.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, w := range workloads {
		got = append(got, w.name)
	}
	for _, w := range spec.Workloads {
		want = append(want, w.Name)
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("workloads: program has %v, BENCHMARK.json %v", got, want)
	}
	same := func(kind string, defs []metricDef, json []struct{ Name, Unit string }) {
		if len(defs) != len(json) {
			t.Errorf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(defs), len(json))
			return
		}
		for i, d := range defs {
			if d.name != json[i].Name || d.unit != json[i].Unit {
				t.Errorf("%s[%d]: program has %s (%s), BENCHMARK.json %s (%s)", kind, i, d.name, d.unit, json[i].Name, json[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer, spec.PerLayer)
}

func testRun(t *testing.T) *run {
	return &run{seed: 7, seconds: 1, dir: t.TempDir(), layer: map[string]float64{}, info: map[string]float64{}}
}

// TestExperimentReplayFollowsRunScheme: the traced run's re-run of each
// scheme's perturbation mines exactly what experiment.RunScheme mined,
// and a replay that drifts from it fails.
func TestExperimentReplayFollowsRunScheme(t *testing.T) {
	cfg := experiment.DefaultConfig()
	cfg.Seed = 7
	db, err := dataset.GenerateCensus(4000, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := mining.Apriori(&mining.ExactCounter{DB: db}, cfg.MinSupport)
	if err != nil {
		t.Fatal(err)
	}
	b := &experiment.Bundle{Name: "CENSUS", DB: db, Truth: truth}
	fig, err := studyFigure(newTracer(), b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := decompose(newTracer(), b, fig, cfg); err != nil {
		t.Fatalf("replay of RunScheme: %v", err)
	}
	for _, run := range fig.Runs {
		if len(run.Mined.All()) == 0 {
			t.Fatalf("scheme %s mined nothing: the comparison would be vacuous", run.Scheme)
		}
	}
	other := cfg
	other.Seed++
	if err := decompose(newTracer(), b, fig, other); err == nil {
		t.Fatal("a replay on another random stream matched RunScheme")
	}
}

// TestDroppedBatchFailsCheck: a batch counted as acknowledged that the
// collection does not hold turns the record-count check into a failure.
func TestDroppedBatchFailsCheck(t *testing.T) {
	r := testRun(t)
	ev, err := setupIngestJSON(r)
	if err != nil {
		t.Fatal(err)
	}
	e := ev.(*ingestJSON)
	defer e.close()
	if err := e.warm(r); err != nil {
		t.Fatal(err)
	}
	e.phase(r, time.Now().Add(100*time.Millisecond))
	if r.ops.failed != 0 || len(r.ops.lat) == 0 {
		t.Fatalf("phase: %d of %d ops failed", r.ops.failed, len(r.ops.lat))
	}
	e.check(r)
	if r.checkFails != 0 || r.auxFailed != 0 {
		t.Fatalf("clean run failed checks: %v", r.notes)
	}
	e.col.acked.Add(jsonBatch) // the server never received this batch
	e.check(r)
	if r.checkFails != 1 {
		t.Fatalf("dropped batch: %d failed checks, want 1 (%v)", r.checkFails, r.notes)
	}
}
