// Command frapp-mine runs Apriori frequent-itemset mining over a
// categorical CSV database, optionally reconstructing supports when the
// input was perturbed with a gamma-diagonal mechanism.
//
// Usage:
//
//	frapp-mine -schema census|health -in data.csv [-minsup 0.02]
//	           [-mode exact|gamma] [-rho1 0.05] [-rho2 0.50]
//	           [-rules 0.6] [-top 20] [-ops-addr 127.0.0.1:9091]
//
// In -mode gamma the input is assumed to be DET-GD/RAN-GD-perturbed with
// the matrix implied by (rho1, rho2); supports are reconstructed per pass
// exactly as the paper's miner does.
//
// -ops-addr binds an operational sidecar listener (net/http/pprof,
// /healthz, /readyz) for profiling long mining runs; bind it to
// localhost (see docs/observability.md).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/mining"
	"repro/internal/telemetry"
)

func main() {
	var (
		schemaName = flag.String("schema", "census", "schema of the input: census or health")
		in         = flag.String("in", "", "input CSV (required)")
		minsup     = flag.Float64("minsup", 0.02, "minimum support fraction")
		mode       = flag.String("mode", "exact", "support counting: exact or gamma (reconstruct)")
		rho1       = flag.Float64("rho1", 0.05, "privacy prior bound rho1 (gamma mode)")
		rho2       = flag.Float64("rho2", 0.50, "privacy posterior bound rho2 (gamma mode)")
		rules      = flag.Float64("rules", 0, "if > 0, also generate association rules at this confidence")
		top        = flag.Int("top", 20, "how many itemsets/rules to print per section")
		condensed  = flag.Bool("condensed", false, "also report maximal and closed itemset counts")
		opsAddr    = flag.String("ops-addr", "", "serve pprof, /healthz and /readyz on this address while mining (empty = off; bind localhost in production)")
	)
	flag.Parse()
	if *opsAddr != "" {
		ops, err := telemetry.ServeOps(*opsAddr, telemetry.OpsHandler(telemetry.NewRegistry(), nil))
		if err != nil {
			fmt.Fprintln(os.Stderr, "frapp-mine:", err)
			os.Exit(1)
		}
		defer ops.Close()
		fmt.Fprintf(os.Stderr, "ops listener (pprof, /healthz, /readyz) on http://%s\n", ops.Addr)
	}
	if err := run(*schemaName, *in, *minsup, *mode, *rho1, *rho2, *rules, *top, *condensed); err != nil {
		fmt.Fprintln(os.Stderr, "frapp-mine:", err)
		os.Exit(1)
	}
}

func run(schemaName, in string, minsup float64, mode string, rho1, rho2, rules float64, top int, condensed bool) error {
	if in == "" {
		return fmt.Errorf("-in is required")
	}
	var sc *dataset.Schema
	switch schemaName {
	case "census":
		sc = dataset.CensusSchema()
	case "health":
		sc = dataset.HealthSchema()
	default:
		return fmt.Errorf("unknown schema %q", schemaName)
	}
	f, err := os.Open(in)
	if err != nil {
		return err
	}
	defer f.Close()
	db, err := dataset.ReadCSV(f, sc)
	if err != nil {
		return err
	}

	var counter mining.SupportCounter
	switch mode {
	case "exact":
		counter = &mining.ExactCounter{DB: db}
	case "gamma":
		gamma, err := (core.PrivacySpec{Rho1: rho1, Rho2: rho2}).Gamma()
		if err != nil {
			return err
		}
		m, err := core.NewGammaDiagonal(sc.DomainSize(), gamma)
		if err != nil {
			return err
		}
		counter, err = mining.NewGammaCounter(db, m)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown mode %q (want exact or gamma)", mode)
	}

	res, err := mining.Apriori(counter, minsup)
	if err != nil {
		return err
	}
	fmt.Printf("mined %d records at supmin=%.3g (%s mode): counts by length %v\n",
		db.N(), minsup, mode, res.Counts())
	for _, level := range res.ByLength {
		printed := 0
		for _, fi := range level {
			if printed >= top {
				fmt.Printf("  … %d more of length %d\n", len(level)-printed, fi.Items.Len())
				break
			}
			fmt.Printf("  %-60s sup=%.4f\n", fi.Items.FormatWith(sc), fi.Support)
			printed++
		}
	}
	if condensed {
		max := mining.Maximal(res)
		closed := mining.Closed(res, 1e-9)
		fmt.Printf("\ncondensed representations: %d maximal, %d closed (of %d frequent)\n",
			len(max), len(closed), len(res.All()))
		for i, m := range max {
			if i >= top {
				fmt.Printf("  … %d more maximal\n", len(max)-i)
				break
			}
			fmt.Printf("  [maximal] %s (sup=%.4f)\n", m.Items.FormatWith(sc), m.Support)
		}
	}
	if rules > 0 {
		rs, err := mining.GenerateRules(res, rules)
		if err != nil {
			return err
		}
		fmt.Printf("\n%d association rules at confidence >= %.2f\n", len(rs), rules)
		for i, r := range rs {
			if i >= top {
				fmt.Printf("  … %d more\n", len(rs)-i)
				break
			}
			fmt.Printf("  %s => %s (sup=%.4f conf=%.3f)\n",
				r.Antecedent.FormatWith(sc), r.Consequent.FormatWith(sc), r.Support, r.Confidence)
		}
	}
	return nil
}
