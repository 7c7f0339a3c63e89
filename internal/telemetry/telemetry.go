// Package telemetry is the dependency-free operational metrics and
// logging core: atomic counters, gauges, and log-bucketed latency
// histograms behind a registry that renders Prometheus text exposition
// format (version 0.0.4), plus the access-log constructor (log/slog's
// JSON handler) and per-request IDs. Everything here is stdlib-only and safe for
// concurrent use; instruments are fixed-size and allocation-free to
// update, so they can sit directly on ingest fast paths.
//
// Privacy contract (conf_icde_AgrawalH05): telemetry carries aggregate
// operational data only. Metric names, label keys, and label values are
// fixed at registration time from operator-controlled vocabulary
// (routes, status classes, shard indices, peer URLs) — never from
// record or category contents. The service layer enforces and tests
// this; the registry helps by making every series an explicit,
// enumerable registration.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing uint64 metric.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Label is one metric dimension. Values must come from operator or
// deployment vocabulary (route names, shard indices, peer URLs), never
// from record contents.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Metric type strings as they appear on exposition TYPE lines.
const (
	TypeCounter = "counter"
	TypeGauge   = "gauge"
	// TypeSummary is how Histograms render: φ-quantile samples plus
	// _sum and _count, cheaper to scrape than ~1200 raw log-linear
	// buckets and exact where it matters (count, sum, max).
	TypeSummary = "summary"
)

// summaryQuantiles are the φ values every histogram exposes. 1.0 is the
// exact tracked maximum.
var summaryQuantiles = []float64{0.5, 0.9, 0.99, 1}

type series struct {
	labels    []Label
	counter   *Counter
	counterFn func() float64
	gauge     *Gauge
	gaugeFn   func() float64
	hist      *Histogram
	// histRaw marks a values histogram (RecordValue): samples render as
	// the raw recorded numbers instead of nanoseconds-to-seconds.
	histRaw bool
}

type family struct {
	name   string
	help   string
	typ    string
	series []*series
	byKey  map[string]*series
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. Registration methods are get-or-create: calling
// Counter twice with the same name and labels returns the same
// instrument, so lazily materialising a label combination on first use
// is cheap and race-free. Registration takes a lock; updates on the
// returned instruments are lock-free.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// Counter returns the counter registered under name with the given
// labels, creating the family and series as needed.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.lookup(name, help, TypeCounter, labels)
	if s.counter == nil {
		s.counter = &Counter{}
	}
	return s.counter
}

// Gauge returns the gauge registered under name with the given labels.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	s := r.lookup(name, help, TypeGauge, labels)
	if s.gauge == nil {
		s.gauge = &Gauge{}
	}
	return s.gauge
}

// CounterFunc registers a counter whose value is computed by fn at
// scrape time. fn must be monotonically non-decreasing; use it to
// expose counts a subsystem already tracks under its own lock instead
// of double-booking them into a Counter.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	s := r.lookup(name, help, TypeCounter, labels)
	s.counterFn = fn
}

// GaugeFunc registers a gauge whose value is computed by fn at scrape
// time — the natural shape for queue depths, ages, and uptime, where
// sampling at scrape beats instrumenting every transition.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	s := r.lookup(name, help, TypeGauge, labels)
	s.gaugeFn = fn
}

// Histogram returns the latency histogram registered under name with
// the given labels; it renders as a Prometheus summary.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	s := r.lookup(name, help, TypeSummary, labels)
	if s.hist == nil {
		s.hist = NewHistogram()
	}
	return s.hist
}

// HistogramValues returns a histogram over unitless values (batch
// sizes, byte counts): observations go in via RecordValue and the
// summary renders them raw instead of converting nanoseconds to
// seconds.
func (r *Registry) HistogramValues(name, help string, labels ...Label) *Histogram {
	s := r.lookup(name, help, TypeSummary, labels)
	if s.hist == nil {
		s.hist = NewHistogram()
	}
	s.histRaw = true
	return s.hist
}

// lookup finds or creates the series for (name, labels). It panics on
// malformed or conflicting registrations: every call site passes
// compile-time-constant names, so a failure here is a programming
// error, caught by the first test that touches the instrument.
func (r *Registry) lookup(name, help, typ string, labels []Label) *series {
	if !validMetricName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validLabelKey(l.Key) {
			panic(fmt.Sprintf("telemetry: invalid label key %q on %q", l.Key, name))
		}
		if l.Key == "quantile" {
			panic(fmt.Sprintf("telemetry: label key \"quantile\" on %q is reserved for summary rendering", name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, byKey: make(map[string]*series)}
		r.families = append(r.families, f)
		r.byName[name] = f
	} else if f.typ != typ {
		panic(fmt.Sprintf("telemetry: metric %q registered as %s and %s", name, f.typ, typ))
	}
	key := labelKey(labels)
	if s := f.byKey[key]; s != nil {
		return s
	}
	s := &series{labels: append([]Label(nil), labels...)}
	sort.Slice(s.labels, func(i, j int) bool { return s.labels[i].Key < s.labels[j].Key })
	f.series = append(f.series, s)
	f.byKey[key] = s
	return s
}

func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	sorted := append([]Label(nil), labels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	var b strings.Builder
	for _, l := range sorted {
		b.WriteString(l.Key)
		b.WriteByte('\xff')
		b.WriteString(l.Value)
		b.WriteByte('\xfe')
	}
	return b.String()
}

// Families returns the registered family names in registration order —
// the declared-metric list a scrape validator checks against.
func (r *Registry) Families() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, len(r.families))
	for i, f := range r.families {
		out[i] = f.name
	}
	return out
}

// EachSeries calls fn for every registered series with its family name,
// type, and label set. Used by the privacy guard test to enumerate
// every string that can ever appear on the metrics endpoint.
func (r *Registry) EachSeries(fn func(name, typ string, labels []Label)) {
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()
	for _, f := range fams {
		for _, s := range f.series {
			fn(f.name, f.typ, s.labels)
		}
	}
}

// WriteText renders the registry in Prometheus text exposition format
// (version 0.0.4): families in registration order, each with HELP and
// TYPE lines, histograms as summaries with quantile samples in seconds.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()
	buf := make([]byte, 0, 4096)
	for _, f := range fams {
		buf = append(buf, "# HELP "...)
		buf = append(buf, f.name...)
		buf = append(buf, ' ')
		buf = appendEscapedHelp(buf, f.help)
		buf = append(buf, "\n# TYPE "...)
		buf = append(buf, f.name...)
		buf = append(buf, ' ')
		buf = append(buf, f.typ...)
		buf = append(buf, '\n')
		for _, s := range f.series {
			switch {
			case s.counterFn != nil:
				buf = appendSample(buf, f.name, "", s.labels, "", s.counterFn())
			case s.counter != nil:
				buf = appendSample(buf, f.name, "", s.labels, "", float64(s.counter.Value()))
			case s.gaugeFn != nil:
				buf = appendSample(buf, f.name, "", s.labels, "", s.gaugeFn())
			case s.gauge != nil:
				buf = appendSample(buf, f.name, "", s.labels, "", s.gauge.Value())
			case s.hist != nil:
				h := s.hist
				// Durations are tracked in ns and exposed in seconds; raw
				// values histograms expose the recorded numbers as-is.
				val := func(d time.Duration) float64 {
					if s.histRaw {
						return float64(d)
					}
					return d.Seconds()
				}
				for _, q := range summaryQuantiles {
					qs := strconv.FormatFloat(q, 'g', -1, 64)
					buf = appendSample(buf, f.name, "", s.labels, qs, val(h.Quantile(q)))
				}
				buf = appendSample(buf, f.name, "_sum", s.labels, "", val(h.Sum()))
				buf = appendSample(buf, f.name, "_count", s.labels, "", float64(h.Count()))
			}
		}
	}
	_, err := w.Write(buf)
	return err
}

// appendSample renders one `name{labels} value` line. quantile, when
// non-empty, is appended as the trailing quantile="..." label.
func appendSample(buf []byte, name, suffix string, labels []Label, quantile string, v float64) []byte {
	buf = append(buf, name...)
	buf = append(buf, suffix...)
	if len(labels) > 0 || quantile != "" {
		buf = append(buf, '{')
		for i, l := range labels {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, l.Key...)
			buf = append(buf, '=', '"')
			buf = appendEscapedLabel(buf, l.Value)
			buf = append(buf, '"')
		}
		if quantile != "" {
			if len(labels) > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, "quantile=\""...)
			buf = append(buf, quantile...)
			buf = append(buf, '"')
		}
		buf = append(buf, '}')
	}
	buf = append(buf, ' ')
	buf = appendFloat(buf, v)
	buf = append(buf, '\n')
	return buf
}

// appendFloat renders v the way Prometheus expects: integral values
// without an exponent where possible, shortest round-trip otherwise.
func appendFloat(buf []byte, v float64) []byte {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.AppendInt(buf, int64(v), 10)
	}
	return strconv.AppendFloat(buf, v, 'g', -1, 64)
}

// appendEscapedHelp escapes \ and newline in HELP text.
func appendEscapedHelp(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			buf = append(buf, '\\', '\\')
		case '\n':
			buf = append(buf, '\\', 'n')
		default:
			buf = append(buf, s[i])
		}
	}
	return buf
}

// appendEscapedLabel escapes \, ", and newline in label values.
func appendEscapedLabel(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			buf = append(buf, '\\', '\\')
		case '"':
			buf = append(buf, '\\', '"')
		case '\n':
			buf = append(buf, '\\', 'n')
		default:
			buf = append(buf, s[i])
		}
	}
	return buf
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func validLabelKey(s string) bool {
	if s == "" || strings.HasPrefix(s, "__") {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}
