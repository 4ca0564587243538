package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
)

// metricNames reads the metric names BENCHMARK.json lists under key.
func metricNames(t *testing.T, key string) []string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var ms []struct {
		Name string `json:"name"`
	}
	if err := json.Unmarshal(spec[key], &ms); err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(ms))
	for i, m := range ms {
		names[i] = m.Name
	}
	sort.Strings(names)
	return names
}

// runBench runs one short workload in a scratch directory.
func runBench(t *testing.T, o options) *result {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	var out bytes.Buffer
	res, err := bench(o, &out)
	if err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("run not correct: %+v\n%s", res, out.String())
	}
	return res
}

func keys(m map[string]metric) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// A short run of each kind passes its checks and reports exactly the
// metrics BENCHMARK.json lists for its mode.
func TestBenchReportsListedMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	e2e, layers := metricNames(t, "end_to_end"), metricNames(t, "per_layer")
	res := runBench(t, options{workload: "correction", seed: 3, seconds: 1})
	if got := keys(res.Metrics); !slices.Equal(got, e2e) {
		t.Errorf("untraced metrics %v, want %v", got, e2e)
	}
	for _, name := range []string{"turns_per_s", "ask_p50_ms", "session_p99_ms", "setup_s", "live_heap_mb"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
		}
	}
	res = runBench(t, options{workload: "memo-hot", seed: 3, seconds: 2, trace: true})
	if got := keys(res.Metrics); !slices.Equal(got, layers) {
		t.Errorf("traced metrics %v, want %v", got, layers)
	}
	if v := res.Metrics["assistant.memo_hit_ratio"].Value; v != 1 {
		t.Errorf("memo-hot memo hit ratio %v, want 1", v)
	}
}
