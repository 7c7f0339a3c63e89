// Command perfbench is the repository's benchmark: one program that drives
// two named workloads in-process through the public entry points
// frapp-server wires together (registry.Registry.Handler over
// service.Server, store.FileStore) and through internal/experiment, checks
// that their outputs are correct, and prints one JSON result line.
//
//	bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// a traced run times the calls into each layer from outside and carries
// the per-layer metrics. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/telemetry"
)

// env is one set-up workload instance.
type env interface {
	// warm runs one untimed pass of the workload's ops.
	warm(r *run) error
	// phase runs the timed phase until deadline, logging unit ops in r.ops
	// and the records it completed in r.records.
	phase(r *run, deadline time.Time)
	// check runs the correctness checks and the post-phase measurements.
	check(r *run)
	// layers fills the per-layer metrics of a traced run.
	layers(r *run) error
	// metrics returns the program's telemetry registry, or nil.
	metrics() *telemetry.Registry
	close()
}

type workload struct {
	name  string
	setup func(r *run) (env, error)
}

// workloads are BENCHMARK.json's, in its order; README.md gives the
// reason for each.
var workloads = []workload{
	{"ingest-json", setupIngestJSON},
	{"ingest-durable", setupIngestDurable},
}

// endToEnd and perLayer name the result metrics in the order printed;
// they match BENCHMARK.json.
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"p50_ms", "ms"}, {"tail_ms", "ms"}, {"records_per_s", "1/s"},
	{"query_p50_ms", "ms"}, {"cpu_ms", "ms"}, {"heap_mb", "MiB"},
}

type metricDef struct{ name, unit string }

// A run performs its set-up at least setupReps times and until the set-ups
// took setupSeconds in all; setup_s is the median. One short set-up moves
// by a third with where the GC's cycles fall, so it is repeated more often.
const (
	setupReps    = 5
	setupSeconds = 3.0
)

// run is the state of one benchmark invocation.
type run struct {
	workload string
	seed     int64
	seconds  int
	dir      string  // scratch directory inside the checkout
	tr       *tracer // nil when untraced
	setupRep int

	ops     opLog
	rate    float64 // records_per_s when the workload measures it itself
	records int64
	query   []float64 // post-phase or in-phase query latencies, ms

	checks, checkFails int
	auxOps, auxFailed  int
	notes              []string
	expo               expoDelta

	phaseAllocs uint64             // heap allocations during the timed phase
	layer       map[string]float64 // per-layer metrics of a traced run
	info        map[string]float64 // reported, ungated numbers (accuracy, counts)
}

// check records one correctness check; a failed check is a failed op.
func (r *run) check(name string, ok bool, detail string) {
	r.checks++
	if !ok {
		r.checkFails++
		r.notes = append(r.notes, name+": "+detail)
	}
}

func (r *run) traced() bool { return r.tr != nil }

// opTracer is the tracer for one op: the run's tracer when the op is
// traced, nil otherwise.
func (r *run) opTracer(traced bool) *tracer {
	if traced {
		return r.tr
	}
	return nil
}

// aux counts ops that are not the workload's unit op (the queries) into
// attempted and failed.
func (r *run) aux(l *opLog) {
	r.auxOps += len(l.lat)
	r.auxFailed += l.failed
	r.notes = append(r.notes, l.failNotes...)
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "timed phase length in seconds")
	trace := fs.Int("trace", 0, "1 for the traced per-layer run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for _, cand := range workloads {
		if cand.name == *name {
			w = &cand
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds >= 1, --trace 0|1\n", names())
		return 2
	}
	r := &run{workload: w.name, seed: *seed, seconds: *seconds,
		dir:   filepath.Join(".bench_build", "run", fmt.Sprintf("%s-%d-%d", w.name, *seed, os.Getpid())),
		layer: map[string]float64{}, info: map[string]float64{}}
	if *trace == 1 {
		r.tr = newTracer()
	}
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(r.dir)
	res, err := execute(r, w)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	printTable(stdout, r, res)
	line, _ := json.Marshal(res)
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func names() string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return strings.Join(out, ", ")
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// execute sets the workload up (once when traced), warms it, runs the
// timed phase, checks it and computes the result.
func execute(r *run, w *workload) (*result, error) {
	reps, least := setupReps, setupSeconds
	if r.traced() {
		reps, least = 1, 0
	}
	var (
		e      env
		setups []float64
		spent  float64
	)
	for i := 0; i < reps || spent < least; i++ {
		if e != nil {
			e.close()
			e = nil
			runtime.GC()
		}
		r.setupRep = i
		t0 := time.Now()
		var err error
		if e, err = w.setup(r); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		spent += setups[i]
	}
	defer e.close()
	if err := e.warm(r); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	runtime.GC()

	var before *telemetry.Exposition
	if reg := e.metrics(); reg != nil {
		var err error
		if before, err = scrape(reg); err != nil {
			return nil, err
		}
	}
	gc0, pause0 := gcStats()
	m0 := mallocs()
	cpu0 := cpuTime()
	t0 := time.Now()
	deadline := t0.Add(time.Duration(r.seconds) * time.Second)
	cpuWindows := sampleCPU(t0, deadline, cpu0)
	e.phase(r, deadline)
	cpu := cpuTime() - cpu0
	samples := cpuWindows()

	r.phaseAllocs = mallocs() - m0
	gc1, pause1 := gcStats()
	heap := liveHeapMB()

	e.check(r)
	if reg := e.metrics(); reg != nil {
		after, err := scrape(reg)
		if err != nil {
			return nil, err
		}
		r.expo = expoDelta{before, after}
	}

	nops := len(r.ops.lat)
	res := &result{
		Attempted: nops + r.auxOps + r.checks,
		Failed:    r.ops.failed + r.auxFailed + r.checkFails,
		Metrics:   map[string]metricValue{},
	}
	res.Correct = res.Failed == 0 && nops > 0
	if nops == 0 {
		r.notes = append(r.notes, "no unit op completed in the timed phase")
	}
	r.notes = append(r.notes, r.ops.failNotes...)

	if !r.traced() {
		vals := endToEndValues(r, samples, cpu)
		vals["setup_s"] = median(setups)
		vals["heap_mb"] = heap
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{vals[m.name], m.unit}
		}
		r.info["ops"] = float64(nops)
		r.info["queries"] = float64(len(r.query))
		return res, nil
	}

	if err := e.layers(r); err != nil {
		return nil, fmt.Errorf("per-layer measurement: %w", err)
	}
	plain, traced := r.ops.split()
	r.layer["runtime.gc_cycles"] = float64(gc1 - gc0)
	r.layer["runtime.gc_pause_ms"] = ms(pause1 - pause0)
	r.layer["trace.overhead_pct"] = (median(traced)/median(plain) - 1) * 100
	r.layer["service.failed_ops"] = float64(res.Failed)
	r.layer["dataset.generate_ms"] = r.tr.meanMs("dataset.generate")
	for _, m := range perLayer {
		v, ok := r.layer[m.name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", m.name)
		}
		res.Metrics[m.name] = metricValue{v, m.unit}
	}
	spans := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", r.workload, r.seed))
	if err := r.tr.writeSpans(spans); err != nil {
		return nil, err
	}
	r.notes = append(r.notes, "spans written to "+spans)
	return res, nil
}

// windowLen is the length of the slices the timed phase is cut into for
// per-window statistics.
const windowLen = time.Second

// sampleCPU records the process CPU time at every window boundary of the
// timed phase, from a goroutine that does nothing else and ends at the
// deadline; the returned function waits for it and returns the samples.
func sampleCPU(t0, deadline time.Time, cpu0 time.Duration) func() []cpuSample {
	samples := []cpuSample{{t0, cpu0}}
	done := make(chan struct{})
	go func() {
		defer close(done)
		tk := time.NewTicker(windowLen)
		defer tk.Stop()
		for range tk.C {
			now := time.Now()
			samples = append(samples, cpuSample{now, cpuTime()})
			if !now.Add(windowLen / 2).Before(deadline) {
				return
			}
		}
	}()
	return func() []cpuSample {
		<-done
		return samples
	}
}

// endToEndValues computes the timed phase's end-to-end metrics. Where the
// unit op is frequent enough (see denseWindows), rates, CPU per op, p50
// and the tail are medians over one-second windows, so a stall of the
// host in one window does not move the run's figure.
func endToEndValues(r *run, samples []cpuSample, cpu time.Duration) map[string]float64 {
	plain, _ := r.ops.split()
	vals := map[string]float64{
		"p50_ms":       median(plain),
		"tail_ms":      percentile(plain, 0.9),
		"query_p50_ms": median(r.query),
		"cpu_ms":       ms(cpu) / float64(max(len(r.ops.lat), 1)),
	}
	// The windows end at the deadline: what follows it (in-flight ops, a
	// final flush) belongs to no window.
	ws := r.ops.windows(samples)
	dense := denseWindows(ws)
	if dense {
		vals["p50_ms"] = perWindow(ws, func(w window) float64 { return median(w.lat) })
		vals["tail_ms"] = perWindow(ws, func(w window) float64 { return percentile(w.lat, 0.9) })
		vals["cpu_ms"] = perWindow(ws, func(w window) float64 { return ms(w.cpu) / float64(len(w.lat)) })
		vals["records_per_s"] = perWindow(ws, func(w window) float64 { return w.work / w.dur.Seconds() })
	}
	if r.rate > 0 {
		vals["records_per_s"] = r.rate
	} else if !dense {
		// Few, long ops: records per second up to the last completion.
		var work float64
		last := samples[0].at
		for i, end := range r.ops.ends {
			work += r.ops.work[i]
			if end.After(last) {
				last = end
			}
		}
		vals["records_per_s"] = work / last.Sub(samples[0].at).Seconds()
	}
	return vals
}

// printTable prints the human-readable report: machine info, every metric
// with its unit, the ungated numbers and any check failures.
func printTable(w io.Writer, r *run, res *result) {
	info := machineInfo(r.dir)
	keys := make([]string, 0, len(info))
	for k := range info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var parts []string
	for _, k := range keys {
		parts = append(parts, k+"="+info[k])
	}
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d seconds=%d trace=%v\n", r.workload, r.seed, r.seconds, r.traced())
	fmt.Fprintf(w, "# machine %s\n", strings.Join(parts, " "))
	fmt.Fprintf(w, "# ops attempted=%d failed=%d correct=%v\n", res.Attempted, res.Failed, res.Correct)
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "%-36s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	if r.traced() {
		// Table-only layer numbers (not in BENCHMARK.json's per_layer set).
		var extra []string
		for k := range r.layer {
			if _, ok := res.Metrics[k]; !ok {
				extra = append(extra, k)
			}
		}
		sort.Strings(extra)
		for _, k := range extra {
			fmt.Fprintf(w, "%-36s %14.6g (table only)\n", k, r.layer[k])
		}
	}
	var infoKeys []string
	for k := range r.info {
		infoKeys = append(infoKeys, k)
	}
	sort.Strings(infoKeys)
	for _, k := range infoKeys {
		fmt.Fprintf(w, "# info %s = %.6g\n", k, r.info[k])
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "# note %s\n", n)
	}
}

// machineInfo describes where the run happened: core counts, Go version,
// CPU model and the filesystem type of the run's state directory.
func machineInfo(dir string) map[string]string {
	info := map[string]string{
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"cpu":        "unknown",
		"state_fs":   "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				info["cpu"] = strings.ReplaceAll(strings.TrimSpace(v), " ", "_")
				break
			}
		}
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err == nil {
		fsNames := map[int64]string{0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlay",
			0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs"}
		if n, ok := fsNames[int64(st.Type)]; ok {
			info["state_fs"] = n
		} else {
			info["state_fs"] = fmt.Sprintf("0x%x", st.Type)
		}
	}
	return info
}

// finite maps NaN and ±Inf to 0 for per-layer ratios over empty sets.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
