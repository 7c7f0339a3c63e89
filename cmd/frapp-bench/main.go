// Command frapp-bench regenerates every table and figure of the FRAPP
// paper's evaluation (Section 7) on the synthetic CENSUS and HEALTH
// datasets.
//
// Usage:
//
//	frapp-bench [-exp all|<name>] [-quick] [-census-n N] [-health-n N]
//	            [-seed S] [-minsup F] [-steps K] [-trials T]
//	            [-json results.json] [-ops-addr 127.0.0.1:9091]
//
// frapp-bench -h lists the experiment names. Each experiment prints a
// text rendering of the corresponding paper artifact or extension
// study. -quick shrinks the datasets for a fast smoke run.
//
// With -json, a machine-readable run report is additionally written to
// the given path: the effective configuration plus one record per
// measurement (experiment name, metric, value, unit, ns/op where the
// metric is a timing) — the format CI records as a BENCH_*.json perf
// trajectory across commits.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiment"
	"repro/internal/telemetry"
)

// benchRecord is one measurement in the -json report.
type benchRecord struct {
	Experiment string  `json:"experiment"`
	Metric     string  `json:"metric"`
	Value      float64 `json:"value"`
	Unit       string  `json:"unit,omitempty"`
	// NsPerOp is set for timing metrics: nanoseconds for one run of the
	// experiment at this configuration.
	NsPerOp float64 `json:"ns_per_op,omitempty"`
}

// benchReport is the -json payload.
type benchReport struct {
	Config  benchConfig   `json:"config"`
	Results []benchRecord `json:"results"`
}

// benchConfig pins the knobs a trajectory point was measured under.
type benchConfig struct {
	Exp        string  `json:"exp"`
	Rho1       float64 `json:"rho1"`
	Rho2       float64 `json:"rho2"`
	Gamma      float64 `json:"gamma"`
	MinSupport float64 `json:"minsup"`
	CensusN    int     `json:"census_n"`
	HealthN    int     `json:"health_n"`
	Seed       int64   `json:"seed"`
	Trials     int     `json:"trials"`
}

// recorder accumulates -json records; a nil recorder records nothing.
type recorder struct {
	results []benchRecord
}

func (r *recorder) timing(experiment string, d time.Duration) {
	if r == nil {
		return
	}
	ns := float64(d.Nanoseconds())
	r.results = append(r.results, benchRecord{
		Experiment: experiment, Metric: "wall_time", Value: ns, Unit: "ns", NsPerOp: ns,
	})
}

func (r *recorder) value(experiment, metric string, v float64, unit string) {
	if r == nil {
		return
	}
	r.results = append(r.results, benchRecord{Experiment: experiment, Metric: metric, Value: v, Unit: unit})
}

// write renders the report atomically enough for CI consumption (one
// final write, no partial sections).
func (r *recorder) write(path string, cfg benchConfig) error {
	if r == nil {
		return nil
	}
	report := benchReport{Config: cfg, Results: r.results}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// env is what an experiment body reads: the configuration, the derived
// gamma, the -steps and -trials knobs and the loaded dataset bundles.
type env struct {
	cfg            experiment.Config
	gamma          float64
	steps, trials  int
	census, health *experiment.Bundle
}

// experimentSpec is one -exp value. census and health say which
// dataset bundles its body reads; run loads only those that the
// selected experiments need.
type experimentSpec struct {
	name, title    string
	census, health bool
	body           func(e *env) error
}

// experiments lists every -exp value but "all", in the order -exp all
// runs them. The section title is also the experiment name of the
// section's -json timing record.
var experiments = []experimentSpec{
	{name: "table1", title: "Table 1 — CENSUS schema", body: func(*env) error {
		fmt.Print(experiment.Table1())
		return nil
	}},
	{name: "table2", title: "Table 2 — HEALTH schema", body: func(*env) error {
		fmt.Print(experiment.Table2())
		return nil
	}},
	{name: "table3", title: "Table 3 — frequent itemsets", census: true, health: true, body: func(e *env) error {
		fmt.Print(experiment.Table3(e.census, e.health, e.cfg))
		return nil
	}},
	{name: "params", title: "Derived scheme parameters", body: func(e *env) error {
		return printParams(e.cfg, e.gamma)
	}},
	{name: "fig1", title: "Figure 1 — CENSUS accuracy", census: true, body: func(e *env) error {
		return accuracy(e, e.census)
	}},
	{name: "fig2", title: "Figure 2 — HEALTH accuracy", health: true, body: func(e *env) error {
		return accuracy(e, e.health)
	}},
	{name: "fig3", title: "Figure 3 — randomization tradeoff", census: true, health: true, body: func(e *env) error {
		for _, b := range []*experiment.Bundle{e.census, e.health} {
			target := 4
			if b.MaxLen() < target {
				target = b.MaxLen()
			}
			fig, err := experiment.RandomizationStudy(b, e.cfg, e.steps, target)
			if err != nil {
				return err
			}
			fmt.Print(fig)
			fmt.Println()
		}
		return nil
	}},
	{name: "recon", title: "Theorem 1 — reconstruction error study (CENSUS)", census: true, body: func(e *env) error {
		pts, err := experiment.ReconstructionStudy(e.census, e.cfg, 5)
		if err != nil {
			return err
		}
		fmt.Print(experiment.FormatReconstruction("CENSUS", pts))
		return nil
	}},
	{name: "classify", title: "Extension — privacy-preserving Naive Bayes (HEALTH)", health: true, body: func(e *env) error {
		res, err := experiment.ClassifyStudy(e.health, e.cfg, e.health.DB.Schema.M()-1)
		if err != nil {
			return err
		}
		fmt.Print(res)
		return nil
	}},
	{name: "gammasweep", title: "Extension — DET-GD accuracy vs privacy level (CENSUS)", census: true, body: func(e *env) error {
		specs := []core.PrivacySpec{
			{Rho1: 0.05, Rho2: 0.30},
			{Rho1: 0.05, Rho2: 0.50}, // the paper's setting
			{Rho1: 0.05, Rho2: 0.70},
			{Rho1: 0.05, Rho2: 0.90},
		}
		pts, err := experiment.GammaSweepStudy(e.census, e.cfg, specs)
		if err != nil {
			return err
		}
		fmt.Print(experiment.FormatGammaSweep("CENSUS", pts))
		return nil
	}},
	{name: "relax", title: "Extension — Apriori candidate-relaxation ablation (CENSUS)", census: true, body: func(e *env) error {
		pts, err := experiment.RelaxationStudy(e.census, e.cfg, []float64{1.0, 0.8, 0.6, 0.4})
		if err != nil {
			return err
		}
		fmt.Print(experiment.FormatRelaxation("CENSUS", pts))
		return nil
	}},
	{name: "fig4", title: "Figure 4 — condition numbers", census: true, health: true, body: func(e *env) error {
		for _, b := range []*experiment.Bundle{e.census, e.health} {
			fig, err := experiment.ConditionStudy(b, e.cfg, b.DB.Schema.M())
			if err != nil {
				return err
			}
			fmt.Print(fig)
			fmt.Println()
		}
		return nil
	}},
}

// expValues is the -exp vocabulary: "all" followed by every
// experiment name.
func expValues() string {
	names := []string{"all"}
	for _, x := range experiments {
		names = append(names, x.name)
	}
	return strings.Join(names, ", ")
}

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment to run: "+expValues())
		quick    = flag.Bool("quick", false, "use reduced dataset sizes for a fast smoke run")
		censusN  = flag.Int("census-n", 0, "override CENSUS record count (default 50000, 8000 with -quick)")
		healthN  = flag.Int("health-n", 0, "override HEALTH record count (default 100000, 8000 with -quick)")
		seed     = flag.Int64("seed", 0, "override random seed (default 2005)")
		minsup   = flag.Float64("minsup", 0, "override minimum support (default 0.02)")
		steps    = flag.Int("steps", 11, "number of alpha sweep steps for fig3")
		trials   = flag.Int("trials", 1, "if > 1, average fig1/fig2 over this many perturbation trials (mean±std)")
		jsonPath = flag.String("json", "", "write a machine-readable run report to this path")
		opsAddr  = flag.String("ops-addr", "", "serve pprof, /healthz and /readyz on this address during the run (empty = off; bind localhost in production)")
	)
	flag.Parse()

	if *opsAddr != "" {
		ops, err := telemetry.ServeOps(*opsAddr, telemetry.OpsHandler(telemetry.NewRegistry(), nil))
		if err != nil {
			fmt.Fprintln(os.Stderr, "frapp-bench:", err)
			os.Exit(1)
		}
		defer ops.Close()
		fmt.Fprintf(os.Stderr, "ops listener (pprof, /healthz, /readyz) on http://%s\n", ops.Addr)
	}

	cfg := experiment.DefaultConfig()
	if *quick {
		cfg = experiment.QuickConfig()
	}
	if *censusN > 0 {
		cfg.CensusN = *censusN
	}
	if *healthN > 0 {
		cfg.HealthN = *healthN
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *minsup > 0 {
		cfg.MinSupport = *minsup
	}
	if err := run(*exp, cfg, *steps, *trials, *jsonPath); err != nil {
		fmt.Fprintln(os.Stderr, "frapp-bench:", err)
		os.Exit(1)
	}
}

func run(exp string, cfg experiment.Config, steps, trials int, jsonPath string) error {
	gamma, err := cfg.Gamma()
	if err != nil {
		return err
	}
	var selected []experimentSpec
	needCensus, needHealth := false, false
	for _, x := range experiments {
		if exp == "all" || exp == x.name {
			selected = append(selected, x)
			needCensus = needCensus || x.census
			needHealth = needHealth || x.health
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown experiment %q (want one of: %s)", exp, expValues())
	}
	var rec *recorder
	if jsonPath != "" {
		rec = &recorder{}
	}
	fmt.Printf("FRAPP evaluation — (rho1,rho2)=(%.0f%%,%.0f%%) gamma=%.4g supmin=%.2g census-n=%d health-n=%d seed=%d\n\n",
		cfg.Privacy.Rho1*100, cfg.Privacy.Rho2*100, gamma, cfg.MinSupport, cfg.CensusN, cfg.HealthN, cfg.Seed)

	e := &env{cfg: cfg, gamma: gamma, steps: steps, trials: trials}
	if needCensus {
		t0 := time.Now()
		e.census, err = experiment.LoadCensus(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("[prep] CENSUS: %d records, truth %v (%s)\n", e.census.DB.N(), e.census.Truth.Counts(), time.Since(t0).Round(time.Millisecond))
		rec.timing("prep_census", time.Since(t0))
		rec.value("prep_census", "records", float64(e.census.DB.N()), "records")
	}
	if needHealth {
		t0 := time.Now()
		e.health, err = experiment.LoadHealth(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("[prep] HEALTH: %d records, truth %v (%s)\n", e.health.DB.N(), e.health.Truth.Counts(), time.Since(t0).Round(time.Millisecond))
		rec.timing("prep_health", time.Since(t0))
		rec.value("prep_health", "records", float64(e.health.DB.N()), "records")
	}
	fmt.Println()

	for _, x := range selected {
		t0 := time.Now()
		fmt.Printf("==== %s ====\n", x.title)
		if err := x.body(e); err != nil {
			return fmt.Errorf("%s: %w", x.title, err)
		}
		fmt.Printf("(%s)\n\n", time.Since(t0).Round(time.Millisecond))
		rec.timing(x.title, time.Since(t0))
	}
	if jsonPath != "" {
		if err := rec.write(jsonPath, benchConfig{
			Exp: exp, Rho1: cfg.Privacy.Rho1, Rho2: cfg.Privacy.Rho2, Gamma: gamma,
			MinSupport: cfg.MinSupport, CensusN: cfg.CensusN, HealthN: cfg.HealthN,
			Seed: cfg.Seed, Trials: trials,
		}); err != nil {
			return fmt.Errorf("writing -json report: %w", err)
		}
		fmt.Printf("[json] %d results written to %s\n", len(rec.results), jsonPath)
	}
	return nil
}

// accuracy prints the Figure 1/2 accuracy study of b, averaged over
// e.trials perturbation trials when that is more than one.
func accuracy(e *env, b *experiment.Bundle) error {
	if e.trials > 1 {
		fig, err := experiment.AveragedAccuracyStudy(b, e.cfg, e.trials)
		if err != nil {
			return err
		}
		fmt.Print(fig)
		return nil
	}
	fig, err := experiment.AccuracyStudy(b, e.cfg)
	if err != nil {
		return err
	}
	fmt.Print(fig)
	return nil
}

func printParams(cfg experiment.Config, gamma float64) error {
	for _, sc := range []*dataset.Schema{dataset.CensusSchema(), dataset.HealthSchema()} {
		p, err := core.MaskPForGamma(sc.M(), gamma)
		if err != nil {
			return err
		}
		bm, err := core.NewBoolMapping(sc)
		if err != nil {
			return err
		}
		cnp, err := core.NewCutPasteScheme(bm, cfg.CnPK, cfg.CnPRho)
		if err != nil {
			return err
		}
		gd, err := core.NewGammaDiagonal(sc.DomainSize(), gamma)
		if err != nil {
			return err
		}
		fmt.Printf("%-7s |S_U|=%-6d Mb=%-3d gamma-diagonal cond=%.4g  MASK p=%.4f (amp=%.4g)  C&P K=%d rho=%.3f (amp=%.4g)\n",
			sc.Name, sc.DomainSize(), bm.Mb, gd.Cond(), p,
			func() float64 {
				m, err := core.NewMaskScheme(bm, p)
				if err != nil {
					return -1
				}
				return m.Amplification()
			}(),
			cnp.K, cnp.Rho, cnp.Amplification())
	}
	return nil
}
