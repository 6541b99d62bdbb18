// Package obs is the observability substrate of the serving tier: a
// dependency-free metrics registry (counters, gauges, log-linear
// histograms) with Prometheus text exposition, request tracing with
// per-stage spans and a bounded slowest-trace ring, and structured
// logging helpers. Every layer of the system registers its counters
// here; the HTTP tier mounts the registry at GET /metrics and the
// trace ring at GET /v1/debug/slow.
//
// The package deliberately depends only on the standard library — like
// internal/api it is plumbing every layer must be able to import
// (serve, shard, store, cmd) without dragging the serving
// stack along. Hot-path cost is one atomic add per counter increment
// and one atomic add pair per histogram observation: metric handles
// are resolved at registration time, so the fast path never touches a
// label map or the registry mutex.
package obs

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is
// ready to use; registration (RegisterCounter) only attaches a name to
// it. Safe for concurrent use.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for the exposition to stay monotone).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load reports the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Labels are the dimensions of one metric series, e.g. {"shard": "0"}.
// They are rendered once at registration; the hot path never sees them.
type Labels map[string]string

// renderLabels renders labels in sorted-key order as `{k="v",...}`, or
// "" when empty. Values are escaped per the Prometheus text format.
func renderLabels(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(labels[k]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// seriesKind discriminates what backs one registered series.
type seriesKind uint8

const (
	kindCounter seriesKind = iota
	kindCounterFunc
	kindGaugeFunc
	kindHist
)

// series is one registered (metric family, label set) pair.
type series struct {
	labels    string // rendered label block, "" when unlabeled
	kind      seriesKind
	counter   *Counter
	counterFn func() int64
	gaugeFn   func() float64
	hist      *Hist
}

// family groups the series of one metric name, sharing HELP and TYPE.
type family struct {
	name, help string
	typ        string // "counter", "gauge", or "summary"
	series     []*series
}

// Registry holds metric families and renders them in the Prometheus
// text exposition format. Registration takes the mutex; reading a
// registered Counter or Hist does not.
type Registry struct {
	mu    sync.Mutex
	fams  map[string]*family
	order []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: map[string]*family{}}
}

// register attaches one series to its family, creating the family on
// first use. A family's type is fixed by its first registration;
// re-registering a name under a different type panics — that is a
// wiring bug, not a runtime condition.
func (r *Registry) register(name, help, typ string, s *series) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ}
		r.fams[name] = f
		r.order = append(r.order, name)
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %s registered as both %s and %s", name, f.typ, typ))
	}
	for _, prev := range f.series {
		if prev.labels == s.labels {
			panic(fmt.Sprintf("obs: duplicate series %s%s", name, s.labels))
		}
	}
	f.series = append(f.series, s)
}

// RegisterCounter attaches an existing Counter (typically a struct
// field of the component being instrumented) under name+labels.
func (r *Registry) RegisterCounter(name, help string, labels Labels, c *Counter) {
	r.register(name, help, "counter", &series{labels: renderLabels(labels), kind: kindCounter, counter: c})
}

// RegisterCounterFunc exposes a counter whose value is read by fn at
// scrape time — the bridge for components that already keep their own
// atomic counters (loadctl, lifecycle, store) and stay decoupled from
// this package.
func (r *Registry) RegisterCounterFunc(name, help string, labels Labels, fn func() int64) {
	r.register(name, help, "counter", &series{labels: renderLabels(labels), kind: kindCounterFunc, counterFn: fn})
}

// RegisterGaugeFunc exposes a gauge read by fn at scrape time.
func (r *Registry) RegisterGaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.register(name, help, "gauge", &series{labels: renderLabels(labels), kind: kindGaugeFunc, gaugeFn: fn})
}

// RegisterHist attaches an existing Hist under name+labels, exposed as
// a Prometheus summary (quantiles 0.5/0.9/0.99/0.999 plus _sum and
// _count, in seconds). A summary rather than a native histogram: the
// log-linear layout has ~1900 buckets, and shipping all of them per
// scrape buys nothing over server-side quantiles at 1/32 relative
// error.
func (r *Registry) RegisterHist(name, help string, labels Labels, h *Hist) {
	r.register(name, help, "summary", &series{labels: renderLabels(labels), kind: kindHist, hist: h})
}

// NumSeries reports the number of registered series.
func (r *Registry) NumSeries() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, f := range r.fams {
		n += len(f.series)
	}
	return n
}

// summaryQuantiles are the quantiles a Hist exposes.
var summaryQuantiles = []float64{0.5, 0.9, 0.99, 0.999}

// WriteText renders every family in registration order in the
// Prometheus text exposition format (version 0.0.4).
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	order := append([]string(nil), r.order...)
	fams := make([]*family, len(order))
	for i, name := range order {
		f := r.fams[name]
		cp := *f
		cp.series = append([]*series(nil), f.series...)
		fams[i] = &cp
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range f.series {
			switch s.kind {
			case kindCounter:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, s.labels, s.counter.Load())
			case kindCounterFunc:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, s.labels, s.counterFn())
			case kindGaugeFunc:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, s.labels, formatFloat(s.gaugeFn()))
			case kindHist:
				writeSummary(&b, f.name, s.labels, s.hist)
			}
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// writeSummary renders one Hist as summary samples in seconds.
func writeSummary(b *strings.Builder, name, labels string, h *Hist) {
	for _, q := range summaryQuantiles {
		v := h.Quantile(q).Seconds()
		qs := strconv.FormatFloat(q, 'g', -1, 64)
		if labels == "" {
			fmt.Fprintf(b, "%s{quantile=%q} %s\n", name, qs, formatFloat(v))
		} else {
			// Splice the quantile label into the existing block.
			fmt.Fprintf(b, "%s%s,quantile=%q} %s\n", name, labels[:len(labels)-1], qs, formatFloat(v))
		}
	}
	fmt.Fprintf(b, "%s_sum%s %s\n", name, labels, formatFloat(float64(h.Sum())/1e9))
	fmt.Fprintf(b, "%s_count%s %d\n", name, labels, h.Count())
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(h string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(h)
}

// Handler serves the registry as the body of GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteText(w)
	})
}
