package obs

import (
	"bufio"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestRegistryExposition(t *testing.T) {
	reg := NewRegistry()
	var c, c2 Counter
	reg.RegisterCounter("test_requests_total", "Requests.", Labels{"shard": "0"}, &c)
	c.Add(7)
	reg.RegisterCounter("test_requests_total", "Requests.", Labels{"shard": "1"}, &c2)
	c2.Inc()
	reg.RegisterGaugeFunc("test_inflight", "In flight.", nil, func() float64 { return 3 })
	reg.RegisterCounterFunc("test_scraped_total", "Func-backed.", nil, func() int64 { return 42 })
	reg.RegisterGaugeFunc("test_ratio", "Func gauge.", nil, func() float64 { return 0.5 })
	h := NewHist()
	reg.RegisterHist("test_latency_seconds", "Latency.", Labels{"shard": "0"}, h)
	h.Observe(10 * time.Millisecond)
	h.Observe(20 * time.Millisecond)

	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()

	for _, want := range []string{
		"# HELP test_requests_total Requests.",
		"# TYPE test_requests_total counter",
		`test_requests_total{shard="0"} 7`,
		`test_requests_total{shard="1"} 1`,
		"# TYPE test_inflight gauge",
		"test_inflight 3",
		"test_scraped_total 42",
		"test_ratio 0.5",
		"# TYPE test_latency_seconds summary",
		`test_latency_seconds{shard="0",quantile="0.5"}`,
		`test_latency_seconds_count{shard="0"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	// Exact sum: 30ms in seconds.
	if !strings.Contains(text, `test_latency_seconds_sum{shard="0"} 0.03`) {
		t.Fatalf("exposition missing exact _sum:\n%s", text)
	}
	if n := reg.NumSeries(); n != 6 {
		t.Fatalf("NumSeries = %d, want 6", n)
	}
}

// checkPromText is a minimal exposition-format parser: every
// non-comment line must be `name{labels} value` with a parseable value
// and balanced quotes, and every sample's family must carry TYPE/HELP.
func checkPromText(t *testing.T, text string) map[string]float64 {
	t.Helper()
	typed := map[string]bool{}
	samples := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			switch parts[3] {
			case "counter", "gauge", "summary", "histogram", "untyped":
			default:
				t.Fatalf("invalid metric type in %q", line)
			}
			typed[parts[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		// Split metric name+labels from value at the last space.
		idx := strings.LastIndexByte(line, ' ')
		if idx < 0 {
			t.Fatalf("malformed sample line: %q", line)
		}
		key, val := line[:idx], line[idx+1:]
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		if strings.Count(key, `"`)%2 != 0 || strings.Count(key, "{") != strings.Count(key, "}") {
			t.Fatalf("unbalanced labels in %q", line)
		}
		name := key
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		base := strings.TrimSuffix(strings.TrimSuffix(name, "_sum"), "_count")
		if !typed[name] && !typed[base] {
			t.Fatalf("sample %q has no preceding # TYPE", line)
		}
		samples[key] = v
	}
	return samples
}

func TestHandlerServesParseCleanText(t *testing.T) {
	reg := NewRegistry()
	var c Counter
	reg.RegisterCounter("x_total", "X.", Labels{"shard": "0"}, &c)
	c.Add(5)
	h := NewHist()
	reg.RegisterHist("x_latency_seconds", "L.", nil, h)
	h.Observe(time.Millisecond)
	RegisterRuntimeMetrics(reg)

	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()
	res := httptest.NewRecorder()
	reg.Handler().ServeHTTP(res, httptest.NewRequest("GET", "/metrics", nil))
	if ct := res.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	samples := checkPromText(t, res.Body.String())
	if samples[`x_total{shard="0"}`] != 5 {
		t.Fatalf("samples = %v", samples)
	}
	if samples["go_goroutines"] <= 0 {
		t.Fatal("runtime metrics missing go_goroutines")
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	reg := NewRegistry()
	var a, b Counter
	reg.RegisterCounter("dup_total", "D.", nil, &a)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate series must panic at registration")
		}
	}()
	reg.RegisterCounter("dup_total", "D.", nil, &b)
}

func TestLabelEscaping(t *testing.T) {
	got := renderLabels(Labels{"a": `x"y\z` + "\n"})
	want := `{a="x\"y\\z\n"}`
	if got != want {
		t.Fatalf("renderLabels = %s, want %s", got, want)
	}
}
