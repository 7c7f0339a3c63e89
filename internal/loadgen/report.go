package loadgen

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// BENCH_load.json uses frapp-bench's -json record shape plus a scheme
// field — a config block plus a flat list of {experiment, scheme,
// metric, value, unit, ns_per_op} records — so the perf-trajectory
// tooling reads both artifacts the same way. Endpoint classes are
// encoded in the experiment name (load_submit, load_query, load_mine,
// load_total).

// ReportRecord is one measurement: frapp-bench's benchRecord plus
// Scheme.
type ReportRecord struct {
	Experiment string  `json:"experiment"`
	Scheme     string  `json:"scheme,omitempty"`
	Metric     string  `json:"metric"`
	Value      float64 `json:"value"`
	Unit       string  `json:"unit,omitempty"`
	NsPerOp    float64 `json:"ns_per_op,omitempty"`
}

// ReportConfig pins every knob the run was measured under.
type ReportConfig struct {
	Target     string  `json:"target"`
	Schema     string  `json:"schema"`
	Scheme     string  `json:"scheme"`
	Rho1       float64 `json:"rho1"`
	Rho2       float64 `json:"rho2"`
	DurationNs int64   `json:"duration_ns"`
	Workers    int     `json:"workers"`
	Rate       float64 `json:"rate_ops_per_sec"`
	Batch      int     `json:"batch"`
	QueryBatch int     `json:"query_batch"`
	Wire       string  `json:"wire,omitempty"`
	Mix        string  `json:"mix"`
	Population int     `json:"population"`
	Seed       int64   `json:"seed"`
	Skew       float64 `json:"zipf_skew"`
}

// Report is the BENCH_load.json payload.
type Report struct {
	Config  ReportConfig   `json:"config"`
	Results []ReportRecord `json:"results"`
}

// quantileMetrics is the latency summary every class reports.
var quantileMetrics = []struct {
	name string
	q    float64
}{
	{"p50_ns", 0.50},
	{"p95_ns", 0.95},
	{"p99_ns", 0.99},
	{"max_ns", 1},
}

// BuildReport renders one run's stats as the machine-readable report.
func BuildReport(cfg *Config, stats *RunStats) *Report {
	rpt := &Report{
		Config: ReportConfig{
			Target: cfg.Target, Schema: cfg.Schema, Scheme: cfg.Scheme,
			Rho1: cfg.Rho1, Rho2: cfg.Rho2,
			DurationNs: cfg.Duration.Nanoseconds(),
			Workers:    cfg.Workers, Rate: cfg.Rate,
			Batch: cfg.Batch, QueryBatch: cfg.QueryBatch,
			Wire:       cfg.Wire,
			Mix:        cfg.Mix.String(),
			Population: cfg.Population, Seed: cfg.Seed, Skew: cfg.Skew,
		},
	}
	add := func(exp, metric string, v float64, unit string, nsPerOp float64) {
		rpt.Results = append(rpt.Results, ReportRecord{
			Experiment: exp, Scheme: stats.Scheme, Metric: metric,
			Value: v, Unit: unit, NsPerOp: nsPerOp,
		})
	}
	for _, c := range Classes() {
		exp := "load_" + c.String()
		h := stats.Rec.Hist(c)
		if h.Count() > 0 {
			for _, qm := range quantileMetrics {
				ns := float64(h.Quantile(qm.q).Nanoseconds())
				add(exp, qm.name, ns, "ns", ns)
			}
			mean := float64(h.Mean().Nanoseconds())
			add(exp, "mean_ns", mean, "ns", mean)
		}
		add(exp, "ops", float64(stats.Rec.OK(c)), "ops", 0)
		add(exp, "errors", float64(stats.Rec.Failed(c)), "ops", 0)
		add(exp, "rejected", float64(stats.Rec.Rejected(c)), "ops", 0)
	}
	add("load_total", "records_per_sec", stats.RecordsPerSec(), "records/s", 0)
	add("load_total", "records", float64(stats.Rec.Records()), "records", 0)
	add("load_total", "offered_ops_per_sec", stats.OfferedRate(), "ops/s", 0)
	add("load_total", "achieved_ops_per_sec", stats.AchievedRate(), "ops/s", 0)
	add("load_total", "scheduled_ops", float64(stats.Scheduled), "ops", 0)
	add("load_total", "dispatched_ops", float64(stats.Dispatched), "ops", 0)
	add("load_total", "elapsed_ns", float64(stats.Elapsed.Nanoseconds()), "ns", 0)
	add("load_total", "prepare_ns", float64(stats.PrepareTime.Nanoseconds()), "ns", 0)
	add("load_total", "prepared_records", float64(stats.PreparedRecords), "records", 0)
	if stats.ServerRecords >= 0 {
		add("load_total", "server_records", float64(stats.ServerRecords), "records", 0)
	}
	return rpt
}

// Write renders the report to path in one final write.
func (r *Report) Write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadReport loads a report (e.g. the committed baseline).
func ReadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%w: bad report %s: %v", ErrConfig, path, err)
	}
	return &r, nil
}

// metric finds one (experiment, metric) value; ok is false if absent.
func (r *Report) metric(experiment, metric string) (float64, bool) {
	for _, rec := range r.Results {
		if rec.Experiment == experiment && rec.Metric == metric {
			return rec.Value, true
		}
	}
	return 0, false
}

// CompareBaseline gates cur against base: per endpoint class, cur's p99
// must not exceed base's p99 by more than ×p99Tol, and cur's sustained
// records/sec must reach at least rateTol of base's. Metrics absent
// from the baseline gate nothing (so a baseline can be introduced
// incrementally), and the mine class's p99 is exempt — its latency is
// dominated by deliberate queue backpressure. Returns human-readable
// violations; empty means the gate passes.
func CompareBaseline(cur, base *Report, p99Tol, rateTol float64) []string {
	var violations []string
	for _, class := range []Class{ClassSubmit, ClassQuery} {
		exp := "load_" + class.String()
		basep99, ok := base.metric(exp, "p99_ns")
		if !ok || basep99 <= 0 {
			continue
		}
		curp99, ok := cur.metric(exp, "p99_ns")
		if !ok {
			violations = append(violations,
				fmt.Sprintf("%s: baseline has p99 %.3fms but current run recorded no %s latencies", exp, basep99/1e6, class))
			continue
		}
		if curp99 > basep99*p99Tol {
			violations = append(violations,
				fmt.Sprintf("%s: p99 %.3fms exceeds baseline %.3fms × %.2g tolerance", exp, curp99/1e6, basep99/1e6, p99Tol))
		}
	}
	baseRate, ok := base.metric("load_total", "records_per_sec")
	if ok && baseRate > 0 {
		curRate, ok := cur.metric("load_total", "records_per_sec")
		if !ok || curRate < baseRate*rateTol {
			violations = append(violations,
				fmt.Sprintf("load_total: %.0f records/sec below baseline %.0f × %.2g tolerance", curRate, baseRate, rateTol))
		}
	}
	return violations
}

// Summary renders a human-readable digest of the run for the terminal.
func (r *Report) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "scheme=%s workers=%d rate=%g ops/s mix=%s batch=%d duration=%s population=%d seed=%d\n",
		schemeOf(r), r.Config.Workers, r.Config.Rate, r.Config.Mix, r.Config.Batch,
		time.Duration(r.Config.DurationNs), r.Config.Population, r.Config.Seed)
	for _, c := range Classes() {
		exp := "load_" + c.String()
		ops, _ := r.metric(exp, "ops")
		if ops == 0 {
			continue
		}
		errs, _ := r.metric(exp, "errors")
		rej, _ := r.metric(exp, "rejected")
		fmt.Fprintf(&sb, "%-7s %9.0f ops  errors %.0f  rejected %.0f", c, ops, errs, rej)
		for _, qm := range quantileMetrics {
			if v, ok := r.metric(exp, qm.name); ok {
				fmt.Fprintf(&sb, "  %s %s", strings.TrimSuffix(qm.name, "_ns"), time.Duration(v).Round(10*time.Microsecond))
			}
		}
		sb.WriteByte('\n')
	}
	recs, _ := r.metric("load_total", "records_per_sec")
	offered, _ := r.metric("load_total", "offered_ops_per_sec")
	achieved, _ := r.metric("load_total", "achieved_ops_per_sec")
	fmt.Fprintf(&sb, "total   %9.0f records/sec   offered %.0f ops/s   achieved %.0f ops/s\n", recs, offered, achieved)
	return sb.String()
}

// schemeOf digs the scheme out of the records (the config block has it
// too; prefer the measured one if they ever disagree).
func schemeOf(r *Report) string {
	schemes := map[string]bool{}
	for _, rec := range r.Results {
		if rec.Scheme != "" {
			schemes[rec.Scheme] = true
		}
	}
	if len(schemes) == 1 {
		for s := range schemes {
			return s
		}
	}
	if len(schemes) > 1 {
		keys := make([]string, 0, len(schemes))
		for s := range schemes {
			keys = append(keys, s)
		}
		sort.Strings(keys)
		return strings.Join(keys, ",")
	}
	return r.Config.Scheme
}
