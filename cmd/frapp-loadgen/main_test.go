package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/loadgen"
	"repro/internal/telemetry"
)

// shortArgs is a fast self-hosted run small enough for a unit test.
func shortArgs(extra ...string) []string {
	args := []string{
		"-duration", "500ms", "-workers", "16", "-rate", "300",
		"-population", "2048", "-batch", "64", "-query-batch", "4",
		"-seed", "7",
	}
	return append(args, extra...)
}

func TestRunSelfHosted(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_load.json")
	if code := run(shortArgs("-out", out)); code != 0 {
		t.Fatalf("exit %d", code)
	}
	rpt, err := loadgen.ReadReport(out)
	if err != nil {
		t.Fatal(err)
	}
	if rpt.Config.Scheme != "gamma" || rpt.Config.Seed != 7 {
		t.Fatalf("report config %+v", rpt.Config)
	}
	if len(rpt.Results) == 0 {
		t.Fatal("empty results")
	}
}

func TestRunBadConfigExits2(t *testing.T) {
	if code := run([]string{"-scheme", "rot13"}); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if code := run([]string{"-nonsense"}); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if code := run([]string{"-collection", "Not A Name"}); code != 2 {
		t.Fatalf("bad collection name exit %d, want 2", code)
	}
}

func TestRunSelfHostedCollection(t *testing.T) {
	// A named collection drives the multi-tenant dispatch path; the
	// scrape must carry its collection label, proving the workload ran
	// against the registry-built server, not a bare one.
	dir := t.TempDir()
	out := filepath.Join(dir, "BENCH_load.json")
	metrics := filepath.Join(dir, "load_metrics.txt")
	if code := run(shortArgs("-out", out, "-metrics-out", metrics, "-collection", "perf-tenant")); code != 0 {
		t.Fatalf("exit %d", code)
	}
	rpt, err := loadgen.ReadReport(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(rpt.Results) == 0 {
		t.Fatal("empty results")
	}
	raw, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `collection="perf-tenant"`) {
		t.Fatal("scrape has no collection=\"perf-tenant\" label; workload did not traverse the registry")
	}
}

// TestRunGate: one live run writes a report; the CLI gate then judges
// that report file against itself (exit 0), against a doctored
// impossible copy (exit 1) and against an absent file (exit 2). Gating
// the same numbers keeps the exit codes independent of machine load;
// live-vs-live latency comparison is covered by internal/loadgen's
// CompareBaseline tests.
func TestRunGate(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "BENCH_load.json")
	if code := run(shortArgs("-out", out)); code != 0 {
		t.Fatalf("baseline run exit %d", code)
	}
	rpt, err := loadgen.ReadReport(out)
	if err != nil {
		t.Fatal(err)
	}
	gateAgainst := func(baseline string) int {
		cfg, err := loadgen.ParseArgs(shortArgs("-baseline", baseline))
		if err != nil {
			t.Fatal(err)
		}
		return gate(rpt, cfg)
	}

	// Gating a report against itself must pass.
	if code := gateAgainst(out); code != 0 {
		t.Fatalf("self-gate exit %d, want 0", code)
	}

	// An impossible baseline must fail the gate with exit 1.
	base, err := loadgen.ReadReport(out)
	if err != nil {
		t.Fatal(err)
	}
	for i := range base.Results {
		switch base.Results[i].Metric {
		case "p99_ns":
			base.Results[i].Value = 1 // 1ns p99: unbeatable
		case "records_per_sec":
			base.Results[i].Value = 1e12
		}
	}
	impossible := filepath.Join(dir, "impossible.json")
	if err := base.Write(impossible); err != nil {
		t.Fatal(err)
	}
	if code := gateAgainst(impossible); code != 1 {
		t.Fatalf("impossible gate exit %d, want 1", code)
	}

	// A missing baseline file is a config error, not a regression.
	if code := gateAgainst(filepath.Join(dir, "absent.json")); code != 2 {
		t.Fatalf("absent baseline exit %d, want 2", code)
	}
}

func TestRunScrapesOpsMetrics(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "BENCH_load.json")
	metrics := filepath.Join(dir, "load_metrics.txt")
	if code := run(shortArgs("-out", out, "-metrics-out", metrics)); code != 0 {
		t.Fatalf("exit %d", code)
	}

	rpt, err := loadgen.ReadReport(out)
	if err != nil {
		t.Fatal(err)
	}
	var clientP99, serverP99 bool
	for _, rec := range rpt.Results {
		if rec.Experiment == "load_submit" {
			switch rec.Metric {
			case "p99_ns":
				clientP99 = true
			case "server_p99_ns":
				if rec.Value <= 0 {
					t.Fatalf("server_p99_ns = %v, want > 0", rec.Value)
				}
				serverP99 = true
			}
		}
	}
	if !clientP99 || !serverP99 {
		t.Fatalf("report has client p99=%v server p99=%v, want both", clientP99, serverP99)
	}

	raw, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	expo, err := telemetry.ParseExposition(raw)
	if err != nil {
		t.Fatalf("saved scrape unparseable: %v", err)
	}
	if missing := expo.CheckFamilies(loadgen.RequiredFamilies); len(missing) > 0 {
		t.Fatalf("saved scrape missing families %v", missing)
	}
}

func TestRunBadOpsTargetExits2(t *testing.T) {
	// An explicit but unreachable ops target must fail the run.
	if code := run(shortArgs("-out", "", "-ops-target", "http://127.0.0.1:1")); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

func TestMainSmoke(t *testing.T) {
	// Default -out writes into the cwd; run from a temp dir so the repo
	// tree stays clean.
	t.Chdir(t.TempDir())
	if code := run(shortArgs()); code != 0 {
		t.Fatalf("exit %d", code)
	}
	if _, err := os.Stat("BENCH_load.json"); err != nil {
		t.Fatalf("default report not written: %v", err)
	}
}
