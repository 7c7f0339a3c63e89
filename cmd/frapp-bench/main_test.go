package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/experiment"
)

func silenceStdout(t *testing.T) {
	t.Helper()
	old := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	t.Cleanup(func() {
		os.Stdout = old
		devnull.Close()
	})
}

func TestRunLightweightExperiments(t *testing.T) {
	silenceStdout(t)
	cfg := experiment.QuickConfig()
	for _, exp := range []string{"table1", "table2", "params"} {
		if err := run(exp, cfg, 3, 1, ""); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
	}
}

func TestRunDataExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("data experiments are slow")
	}
	silenceStdout(t)
	cfg := experiment.QuickConfig()
	for _, exp := range []string{"table3", "fig4", "recon"} {
		if err := run(exp, cfg, 3, 1, ""); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	silenceStdout(t)
	cfg := experiment.QuickConfig()
	cfg.MinSupport = -1
	// Lightweight experiments don't need bundles, but the gamma
	// derivation still validates the privacy spec.
	cfg.Privacy.Rho1 = 0.9
	if err := run("table1", cfg, 3, 1, ""); err == nil {
		t.Fatal("invalid config accepted")
	}
}

// TestRunJSONReport checks the -json trajectory format: a config block
// pinning the knobs and one record per measurement, timings carrying
// ns/op.
func TestRunJSONReport(t *testing.T) {
	silenceStdout(t)
	cfg := experiment.QuickConfig()
	cfg.CensusN = 500 // keep the smoke run fast
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := run("table3", cfg, 3, 1, path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var report benchReport
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if report.Config.Exp != "table3" || report.Config.CensusN != 500 || report.Config.Gamma <= 1 {
		t.Fatalf("config block %+v", report.Config)
	}
	if len(report.Results) == 0 {
		t.Fatal("no results recorded")
	}
	timings := 0
	for _, r := range report.Results {
		if r.Experiment == "" || r.Metric == "" {
			t.Fatalf("incomplete record %+v", r)
		}
		if r.Metric == "wall_time" {
			timings++
			if r.NsPerOp <= 0 || r.Unit != "ns" || r.Value != r.NsPerOp {
				t.Fatalf("bad timing record %+v", r)
			}
		}
	}
	if timings < 2 { // prep + at least the experiment section
		t.Fatalf("only %d timing records", timings)
	}
}

// TestRunJSONReportUnwritablePath: the run must fail loudly, not drop
// the report silently.
func TestRunJSONReportUnwritablePath(t *testing.T) {
	silenceStdout(t)
	cfg := experiment.QuickConfig()
	if err := run("table1", cfg, 3, 1, filepath.Join(t.TempDir(), "missing-dir", "bench.json")); err == nil {
		t.Fatal("unwritable -json path accepted")
	}
}

// TestRunRejectsUnknownExperiment: an unknown or retired -exp value is
// an error naming the valid experiments, raised before any report is
// written.
func TestRunRejectsUnknownExperiment(t *testing.T) {
	silenceStdout(t)
	cfg := experiment.QuickConfig()
	for _, exp := range []string{"bogus", "live"} {
		path := filepath.Join(t.TempDir(), "bench.json")
		err := run(exp, cfg, 3, 1, path)
		if err == nil {
			t.Fatalf("-exp %s accepted", exp)
		}
		if !strings.Contains(err.Error(), "table3") {
			t.Fatalf("-exp %s: error %q does not name the valid experiments", exp, err)
		}
		if _, statErr := os.Stat(path); !os.IsNotExist(statErr) {
			t.Fatalf("-exp %s wrote a report (stat: %v)", exp, statErr)
		}
	}
}

// TestRunAllExperimentsWiring runs every experiment on small datasets,
// each on its own as well: under -exp all another entry may load the
// bundle that an entry reads without declaring it. The -json report of
// -exp all holds one timing record per experiment plus the two dataset
// preparations.
func TestRunAllExperimentsWiring(t *testing.T) {
	silenceStdout(t)
	cfg := experiment.QuickConfig()
	cfg.CensusN, cfg.HealthN = 1000, 1000
	for _, x := range experiments {
		if err := run(x.name, cfg, 2, 1, ""); err != nil {
			t.Fatalf("%s: %v", x.name, err)
		}
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := run("all", cfg, 2, 1, path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var report benchReport
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	want := []string{"prep_census", "prep_health"}
	for _, x := range experiments {
		want = append(want, x.title)
	}
	var got []string
	for _, r := range report.Results {
		if r.Metric == "wall_time" {
			got = append(got, r.Experiment)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("timing records %q, want %q", got, want)
	}
}
