// Command frapp-loadgen drives a FRAPP collection server with a
// million-user-scale synthetic workload and gates latency/throughput
// regressions against a committed baseline.
//
// Usage:
//
//	frapp-loadgen [-target URL] [-scheme gamma|mask|cutpaste]
//	              [-collection NAME] [-duration 30s] [-workers 256]
//	              [-rate 2000] [-mix 90:9:1] [-population 100000]
//	              [-seed S] [-out BENCH_load.json]
//	              [-baseline bench_baseline.json]
//	              [-ops-target URL] [-metrics-out load_metrics.txt]
//
// The harness synthesizes a seeded Zipf-skewed population with
// correlated attribute profiles, perturbs and encodes it off the
// latency path, then replays an OPEN-LOOP schedule of submit-batch,
// query, and mine-job operations at the offered -rate. Latency is
// measured from each operation's scheduled time, so queueing under
// saturation counts against the server (no coordinated omission).
//
// With -target empty the command self-hosts an in-process frapp-server
// on a loopback listener — the same handler stack CI runs, with no
// external process to manage. Adding -state DIR gives the self-hosted
// server a durable store, so the run measures ingestion with the WAL
// and checkpoint machinery enabled.
//
// -collection NAME scopes the whole workload to a named collection via
// the /v1/collections/NAME/ routes. Against a remote -target the
// collection must already exist; a self-hosted run creates it inside an
// in-process collection registry, so the measured stack includes
// multi-tenant dispatch.
//
// After the run the harness scrapes the target's ops listener
// (-ops-target, or the self-hosted server's built-in loopback ops
// listener) and folds the server-observed latency quantiles into the
// report next to the client-observed ones; an unparseable scrape or a
// missing declared metric family fails the run. -metrics-out saves the
// raw scrape for CI artifacts.
//
// Exit status: 0 on success, 1 when the -baseline gate finds a
// regression, 2 on bad configuration or a failed run.
package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/loadgen"
	"repro/internal/registry"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	cfg, err := loadgen.ParseArgs(args)
	if err != nil {
		fmt.Fprintf(os.Stderr, "frapp-loadgen: %v\n\n%s", err, loadgen.Usage())
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fmt.Fprintf(os.Stderr, "building population: %d records, schema %s, zipf %g, seed %d\n",
		cfg.Population, cfg.Schema, cfg.Skew, cfg.Seed)
	pop, err := loadgen.BuildPopulation(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "frapp-loadgen: %v\n", err)
		return 2
	}

	if cfg.Target == "" {
		shutdown, url, opsURL, err := selfHost(cfg, pop)
		if err != nil {
			fmt.Fprintf(os.Stderr, "frapp-loadgen: self-host: %v\n", err)
			return 2
		}
		defer shutdown()
		cfg.Target = url
		if cfg.OpsTarget == "" {
			cfg.OpsTarget = opsURL
		}
		fmt.Fprintf(os.Stderr, "self-hosting frapp-server at %s (scheme %s, ops %s)\n", url, cfg.Scheme, opsURL)
	}
	if cfg.Collection != "" {
		// Scope the whole workload to the named collection; the alias
		// routes accept the client's /v1/... suffix after this prefix.
		cfg.Target = strings.TrimRight(cfg.Target, "/") + "/v1/collections/" + cfg.Collection
		fmt.Fprintf(os.Stderr, "targeting collection %q at %s\n", cfg.Collection, cfg.Target)
	}

	fmt.Fprintf(os.Stderr, "driving %s open-loop: %g ops/s, %d workers, mix %s\n",
		cfg.Target, cfg.Rate, cfg.Workers, cfg.Mix)
	stats, err := loadgen.Run(ctx, cfg, pop)
	if err != nil {
		fmt.Fprintf(os.Stderr, "frapp-loadgen: %v\n", err)
		return 2
	}

	rpt := loadgen.BuildReport(cfg, stats)

	// The scrape runs before the report is written and before the gate:
	// a broken exporter (unparseable text, missing declared family) is a
	// run failure, and the server-side quantiles land in the report next
	// to the client-observed ones.
	if cfg.OpsTarget != "" {
		raw, expo, err := loadgen.ScrapeOps(cfg.OpsTarget)
		if cfg.MetricsOut != "" && len(raw) > 0 {
			if werr := os.WriteFile(cfg.MetricsOut, raw, 0o644); werr != nil {
				fmt.Fprintf(os.Stderr, "frapp-loadgen: write metrics: %v\n", werr)
				return 2
			}
			fmt.Fprintf(os.Stderr, "metrics scrape written to %s\n", cfg.MetricsOut)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "frapp-loadgen: %v\n", err)
			return 2
		}
		loadgen.AddServerMetrics(rpt, expo)
	}

	fmt.Print(rpt.Summary())
	if cfg.Out != "" {
		if err := rpt.Write(cfg.Out); err != nil {
			fmt.Fprintf(os.Stderr, "frapp-loadgen: write report: %v\n", err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "report written to %s\n", cfg.Out)
	}

	if cfg.Baseline != "" {
		return gate(rpt, cfg)
	}
	return 0
}

// gate compares a report against the -baseline report file and returns
// the exit status: 0 when it passes, 1 on a regression, 2 when the
// baseline cannot be read.
func gate(rpt *loadgen.Report, cfg *loadgen.Config) int {
	base, err := loadgen.ReadReport(cfg.Baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "frapp-loadgen: baseline: %v\n", err)
		return 2
	}
	if violations := loadgen.CompareBaseline(rpt, base, cfg.P99Tol, cfg.RateTol); len(violations) > 0 {
		fmt.Fprintf(os.Stderr, "REGRESSION GATE FAILED vs %s:\n", cfg.Baseline)
		for _, v := range violations {
			fmt.Fprintf(os.Stderr, "  - %s\n", v)
		}
		return 1
	}
	fmt.Fprintf(os.Stderr, "regression gate passed vs %s (p99 ×%g, rate ≥%g×)\n",
		cfg.Baseline, cfg.P99Tol, cfg.RateTol)
	return 0
}

// selfHost starts an in-process frapp-server matching cfg's contract on
// a loopback listener — instrumented, with a loopback ops listener of
// its own — returning its shutdown func, base URL, and ops URL. The
// built-in ops listener means the -ops-target scrape gate exercises the
// same /metrics path CI scrapes, with no external process to manage.
//
// With -collection set, the server is created inside an in-process
// collection registry instead, so the workload traverses the full
// multi-tenant /v1/collections/{name}/ dispatch path — the same stack a
// named tenant sees in production.
func selfHost(cfg *loadgen.Config, pop *loadgen.Population) (func(), string, string, error) {
	reg := telemetry.NewRegistry()
	handler, closeServer, err := selfHostHandler(cfg, pop, reg)
	if err != nil {
		return nil, "", "", err
	}
	ops, err := telemetry.ServeOps("127.0.0.1:0", telemetry.OpsHandler(reg, nil))
	if err != nil {
		closeServer()
		return nil, "", "", err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ops.Close()
		closeServer()
		return nil, "", "", err
	}
	hs := &http.Server{Handler: handler}
	go func() { _ = hs.Serve(ln) }()
	shutdown := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx)
		_ = ops.Close()
		closeServer()
	}
	return shutdown, "http://" + ln.Addr().String(), "http://" + ops.Addr, nil
}

// selfHostHandler builds the HTTP handler under test: a bare server for
// the legacy single-tenant path, or a registry hosting the named
// collection when -collection is set.
func selfHostHandler(cfg *loadgen.Config, pop *loadgen.Population, reg *telemetry.Registry) (http.Handler, func(), error) {
	if cfg.Collection == "" {
		opts := []service.Option{service.WithScheme(cfg.Scheme), service.WithTelemetry(reg)}
		if cfg.State != "" {
			st, err := store.Open(cfg.State)
			if err != nil {
				return nil, nil, err
			}
			opts = append(opts, service.WithStore(st))
		}
		srv, err := service.NewServer(pop.Schema,
			core.PrivacySpec{Rho1: cfg.Rho1, Rho2: cfg.Rho2}, opts...)
		if err != nil {
			return nil, nil, err
		}
		return srv.Handler(), srv.Close, nil
	}
	tenants, err := registry.New(registry.Options{BaseDir: cfg.State, Metrics: reg})
	if err != nil {
		return nil, nil, err
	}
	col, _, err := tenants.Create(cfg.Collection, registry.CollectionSpec{
		Schema: &registry.SchemaSpec{Name: pop.Schema.Name, Attrs: pop.Schema.Attrs},
		Scheme: cfg.Scheme,
		Rho1:   cfg.Rho1,
		Rho2:   cfg.Rho2,
	})
	if err != nil {
		tenants.Close()
		return nil, nil, err
	}
	// Create returns once the collection is built (or its WAL recovered),
	// so the client's first GET /v1/schema cannot race a 503; a failed
	// build surfaces here.
	if err := col.Ready(); err != nil {
		tenants.Close()
		return nil, nil, err
	}
	return tenants.Handler(), tenants.Close, nil
}
