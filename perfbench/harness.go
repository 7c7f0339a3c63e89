package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/telemetry"
)

// respWriter is a reusable in-memory http.ResponseWriter: the benchmark
// calls handlers directly (no sockets), so a response is just a status
// and a body buffer.
type respWriter struct {
	hdr  http.Header
	code int
	body bytes.Buffer
}

func (w *respWriter) Header() http.Header         { return w.hdr }
func (w *respWriter) Write(p []byte) (int, error) { return w.body.Write(p) }
func (w *respWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

// call sends one in-memory request to h and returns the status and body.
// The body is only valid until the next call with the same writer.
func call(h http.Handler, w *respWriter, method, path, ctype string, hdr map[string]string, body []byte) (int, []byte) {
	var rd io.Reader = http.NoBody
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, "http://bench"+path, rd)
	if err != nil {
		return 0, []byte(err.Error())
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	if w.hdr == nil {
		w.hdr = make(http.Header)
	}
	clear(w.hdr)
	w.code = 0
	w.body.Reset()
	h.ServeHTTP(w, req)
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.code, w.body.Bytes()
}

// callJSON is call with a JSON body and a JSON response decoded into out
// (when non-nil). Any status other than want is an error.
func callJSON(h http.Handler, method, path string, in any, want int, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return err
		}
	}
	var w respWriter
	code, resp := call(h, &w, method, path, "application/json", nil, body)
	if code != want {
		return fmt.Errorf("%s %s: status %d: %s", method, path, code, bytes.TrimSpace(resp))
	}
	if out != nil {
		if err := json.Unmarshal(resp, out); err != nil {
			return fmt.Errorf("%s %s: decoding response: %w", method, path, err)
		}
	}
	return nil
}

// inproc is an http.RoundTripper that serves requests from a handler in
// the same process, so service.Client (used in set-up for client-side
// perturbation) talks to the server without a socket.
type inproc struct{ h http.Handler }

func (t inproc) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// percentile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks. Failed operations enter xs as +Inf, so they count
// as missing any latency limit.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi || math.IsInf(s[hi], 1) {
		return s[hi]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// opLog collects the ops of one timed phase: latency, completion time,
// work done (records), outcome and whether the op was traced. It is
// shared by the loop's clients.
type opLog struct {
	mu        sync.Mutex
	lat       []float64 // ms; +Inf for a failed op
	ends      []time.Time
	work      []float64
	traced    []bool
	failed    int
	failNotes []string
}

func (l *opLog) add(d time.Duration, traced bool, work float64, err error) {
	end := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	v := ms(d)
	if err != nil {
		v = math.Inf(1)
		work = 0
		l.failed++
		if len(l.failNotes) < 5 {
			l.failNotes = append(l.failNotes, err.Error())
		}
	}
	l.lat = append(l.lat, v)
	l.ends = append(l.ends, end)
	l.work = append(l.work, work)
	l.traced = append(l.traced, traced)
}

// split returns the latencies of untraced and traced ops.
func (l *opLog) split() (plain, traced []float64) {
	for i, v := range l.lat {
		if l.traced[i] {
			traced = append(traced, v)
		} else {
			plain = append(plain, v)
		}
	}
	return plain, traced
}

// cpuSample is the process CPU time at one window boundary.
type cpuSample struct {
	at  time.Time
	cpu time.Duration
}

// window is one slice of the timed phase between two CPU samples.
type window struct {
	dur  time.Duration
	cpu  time.Duration
	lat  []float64
	work float64
}

// windows cuts l into the windows bounded by samples, assigning each op
// to the window in which it completed.
func (l *opLog) windows(samples []cpuSample) []window {
	if len(samples) < 2 {
		return nil
	}
	ws := make([]window, len(samples)-1)
	for k := range ws {
		ws[k].dur = samples[k+1].at.Sub(samples[k].at)
		ws[k].cpu = samples[k+1].cpu - samples[k].cpu
	}
	for i, end := range l.ends {
		for k := range ws {
			if !end.Before(samples[k].at) && end.Before(samples[k+1].at) {
				ws[k].lat = append(ws[k].lat, l.lat[i])
				ws[k].work += l.work[i]
				break
			}
		}
	}
	return ws
}

// denseWindows reports whether ws are short enough against the op rate
// for per-window statistics: at least five windows with a median of
// twenty or more ops each.
func denseWindows(ws []window) bool {
	if len(ws) < 5 {
		return false
	}
	n := make([]float64, len(ws))
	for k, w := range ws {
		n[k] = float64(len(w.lat))
	}
	return median(n) >= 20
}

// perWindow returns the median over ws of f.
func perWindow(ws []window, f func(w window) float64) float64 {
	v := make([]float64, 0, len(ws))
	for _, w := range ws {
		if len(w.lat) > 0 {
			v = append(v, f(w))
		}
	}
	return median(v)
}

// loop runs a closed loop: each of clients goroutines issues its next op
// only after the previous one returned, until deadline. op receives the
// client index and a global op sequence number and returns the records it
// completed; in a traced run every odd-numbered op is traced, so traced
// and untraced ops interleave under the same load and trace.overhead_pct
// compares like with like. An op may return a follow-up (the traced run's
// shadow work), which runs after the op's latency is logged.
func loop(clients int, deadline time.Time, tracing bool, log *opLog, op func(client int, seq int64, traced bool) (float64, func(), error)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				seq := next.Add(1) - 1
				traced := tracing && seq%2 == 1
				t0 := time.Now()
				work, after, err := op(c, seq, traced)
				log.add(time.Since(t0), traced, work, err)
				if after != nil {
					after()
				}
			}
		}(c)
	}
	wg.Wait()
}

// span is one traced interval at a layer boundary, recorded from the
// benchmark's own code around a call into the layer's public API.
// Spans of one unit op share its op number (set-up and post-phase spans
// carry 0 or a negative number).
type span struct {
	Op    int64   `json:"op"`
	Name  string  `json:"name"`
	Start float64 `json:"start_ms"`
	End   float64 `json:"end_ms"`
	Work  float64 `json:"work,omitempty"`
}

// layerAcc accumulates one layer boundary's spans: total busy time, call
// count and the units of work (records, cells, ...) they covered.
type layerAcc struct {
	total time.Duration
	calls int
	work  float64
}

// tracer keeps spans in memory (written when the run ends) and per-name
// accumulators the per-layer metrics are computed from. A nil tracer
// records nothing, which is how untraced runs pay no tracing cost.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	acc   map[string]*layerAcc
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), acc: make(map[string]*layerAcc)}
}

// time runs fn as a span named name of op, crediting work units to the
// layer, and returns fn's error.
func (t *tracer) time(name string, op int64, work float64, fn func() error) error {
	start := time.Now()
	err := fn()
	d := time.Since(start)
	if t == nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Op: op, Name: name,
		Start: ms(start.Sub(t.t0)), End: ms(start.Add(d).Sub(t.t0)), Work: work})
	a := t.acc[name]
	if a == nil {
		a = &layerAcc{}
		t.acc[name] = a
	}
	a.total += d
	a.calls++
	a.work += work
	return err
}

// add credits an externally measured duration to a layer accumulator.
func (t *tracer) add(name string, d time.Duration, work float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.acc[name]
	if a == nil {
		a = &layerAcc{}
		t.acc[name] = a
	}
	a.total += d
	a.calls++
	a.work += work
}

func (t *tracer) get(name string) layerAcc {
	if t == nil {
		return layerAcc{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if a := t.acc[name]; a != nil {
		return *a
	}
	return layerAcc{}
}

// absorb adds other's accumulators whose names start with one of
// prefixes to t.
func (t *tracer) absorb(other *tracer, prefixes ...string) {
	other.mu.Lock()
	defer other.mu.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	for name, a := range other.acc {
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) {
				dst := t.acc[name]
				if dst == nil {
					dst = &layerAcc{}
					t.acc[name] = dst
				}
				dst.total += a.total
				dst.calls += a.calls
				dst.work += a.work
				break
			}
		}
	}
}

// meanMs is the mean span duration of a layer boundary in ms.
func (t *tracer) meanMs(name string) float64 {
	a := t.get(name)
	if a.calls == 0 {
		return 0
	}
	return ms(a.total) / float64(a.calls)
}

// usPerWork is the busy time of a layer boundary per unit of work, in µs.
func (t *tracer) usPerWork(name string) float64 {
	a := t.get(name)
	if a.work == 0 {
		return 0
	}
	return float64(a.total) / float64(time.Microsecond) / a.work
}

// writeSpans writes the spans as JSON lines to path.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			return err
		}
	}
	t.mu.Unlock()
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// scrape parses the telemetry registry's current exposition — the same
// text /metrics serves — so per-layer numbers come from the program's own
// instruments.
func scrape(reg *telemetry.Registry) (*telemetry.Exposition, error) {
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		return nil, err
	}
	return telemetry.ParseExposition(buf.Bytes())
}

// expoDelta reads instrument values as the difference between two scrapes
// (before and after the timed phase).
type expoDelta struct{ before, after *telemetry.Exposition }

// sum returns the summed delta of every sample named name whose labels
// include labels.
func (e expoDelta) sum(name string, labels map[string]string) float64 {
	total := func(x *telemetry.Exposition) float64 {
		if x == nil {
			return 0
		}
		var s float64
		for _, smp := range x.Samples {
			if smp.Name != name {
				continue
			}
			ok := true
			for k, v := range labels {
				if smp.Labels[k] != v {
					ok = false
					break
				}
			}
			if ok && smp.Labels["quantile"] == "" {
				s += smp.Value
			}
		}
		return s
	}
	return total(e.after) - total(e.before)
}

// meanMs is a histogram family's mean observation over the phase, in ms.
func (e expoDelta) meanMs(name string, labels map[string]string) float64 {
	n := e.sum(name+"_count", labels)
	if n == 0 {
		return 0
	}
	return e.sum(name+"_sum", labels) * 1000 / n
}

// gcStats returns the GC cycle count and total pause so far.
func gcStats() (uint32, time.Duration) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.NumGC, time.Duration(m.PauseTotalNs)
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// liveHeapMB collects garbage and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
