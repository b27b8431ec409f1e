package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"svard/internal/campaign"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // descending, so sorting matters
		}
		return out
	}
	if _, ok := tailPercentile(xs(199), 0.95, 10); ok {
		t.Fatal("p95 of 199 samples reported; fewer than 10 lie beyond it")
	}
	v, ok := tailPercentile(xs(200), 0.95, 10)
	if !ok || v != 190 {
		t.Fatalf("p95 of 1..200 = %v (ok %v), want 190", v, ok)
	}
	if _, ok := tailPercentile(nil, 0.5, 10); ok {
		t.Fatal("percentile of no samples reported")
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		// statistics.quantiles(data, n=4) outputs.
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1}, 0.5, 2, 3.5}, // extrapolates past the ends, as Python does
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestAttemptedAndFailedAccounting(t *testing.T) {
	w := workload{name: "fake", run: func(b *bench) error {
		b.check(true, "holds")
		b.check(false, "does not hold")
		b.check(true, "holds")
		for _, d := range endToEnd {
			b.e2e[d.Name] = 1
		}
		return nil
	}}
	o, err := runOnce(w, 1, time.Millisecond, false, smallSizes, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if o.Attempted != 3 || o.Failed != 1 || o.Correct {
		t.Fatalf("attempted %d failed %d correct %v, want 3, 1, false", o.Attempted, o.Failed, o.Correct)
	}

	missing := workload{name: "fake", run: func(b *bench) error { return nil }}
	if _, err := runOnce(missing, 1, time.Millisecond, false, smallSizes, t.TempDir()); err == nil {
		t.Fatal("a run that measured no metric printed a result")
	}
}

// benchmarkJSON is the subset of BENCHMARK.json the benchmark mirrors.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	var e2e []metricDecl
	maxBound := 0.0
	for _, m := range bj.EndToEnd {
		e2e = append(e2e, metricDecl{m.Name, m.Unit, m.Better})
		maxBound = max(maxBound, m.Bound)
	}
	if fmt.Sprint(e2e) != fmt.Sprint(endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, the benchmark prints %v", e2e, endToEnd)
	}
	if fmt.Sprint(bj.PerLayer) != fmt.Sprint(perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, the benchmark prints %v", bj.PerLayer, perLayer)
	}
	for _, m := range bj.EndToEnd {
		if m.Name == "setup_s" && m.Bound != maxBound {
			t.Errorf("setup_s bound %v is not the largest (%v)", m.Bound, maxBound)
		}
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not one the benchmark runs", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json workloads %v, the benchmark runs %d", names, len(workloads))
	}
}

// TestSmoke runs every workload at reduced size, untraced and traced, and
// checks that each prints exactly its declared metrics with no failed
// operation, and that the traced pass's trace validates.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs simulate")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			out := t.TempDir()
			for _, traced := range []bool{false, true} {
				o, err := runOnce(w, 1, time.Millisecond, traced, smallSizes, out)
				if err != nil {
					t.Fatal(err)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(o.Metrics) != len(want) || o.Failed != 0 || !o.Correct || o.Attempted < 1 {
					t.Fatalf("traced=%v: %d metrics (want %d), attempted %d, failed %d", traced, len(o.Metrics), len(want), o.Attempted, o.Failed)
				}
				for _, d := range want {
					if m, ok := o.Metrics[d.Name]; !ok || m.Unit != d.Unit {
						t.Errorf("traced=%v: metric %s missing or in the wrong unit (%+v)", traced, d.Name, m)
					}
				}
			}
			if _, err := os.Stat(filepath.Join(out, fmt.Sprintf("trace-%s-1.json", w.name))); err != nil {
				t.Errorf("traced pass wrote no trace: %v", err)
			}
		})
	}
}

func TestDeterministicCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates")
	}
	w, _ := workloadByName("fig12-cold")
	counts := []string{"sim.ticks_per_cell", "sim.skipped_cycle_frac", "memctrl.scan_entries_per_pass",
		"memctrl.scan_passes_per_cell", "mitigation.directives_per_cell"}
	var first map[string]metric
	for i := 0; i < 2; i++ {
		o, err := runOnce(w, 7, time.Millisecond, true, smallSizes, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = o.Metrics
			continue
		}
		for _, c := range counts {
			if o.Metrics[c] != first[c] || first[c].Value == 0 {
				t.Errorf("%s: %v then %v; want equal and non-zero", c, first[c].Value, o.Metrics[c].Value)
			}
		}
	}
}

func TestWrittenSpecsAreValidCampaigns(t *testing.T) {
	for _, w := range workloads {
		dir := t.TempDir()
		if err := writeSpecFiles(dir, w.specs(3, fullSizes)); err != nil {
			t.Fatal(err)
		}
		files, _ := filepath.Glob(filepath.Join(dir, "*.json"))
		if len(files) == 0 {
			t.Fatalf("%s: no spec written", w.name)
		}
		for _, f := range files {
			raw, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			var spec campaign.Spec
			if err := json.Unmarshal(raw, &spec); err != nil {
				t.Fatalf("%s: %v", f, err)
			}
			if err := spec.Validate(); err != nil {
				t.Errorf("%s: %v", f, err)
			}
		}
	}
}

func TestParseProfileFindsBusyFunction(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles for a while")
	}
	f, err := os.Create(filepath.Join(t.TempDir(), "cpu.pprof"))
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	f.Close()
	raw, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range p.samples {
		for _, fn := range s.stack {
			found = found || strings.HasSuffix(fn, ".spin")
		}
	}
	if len(p.samples) == 0 || !found {
		t.Fatalf("profile of a spinning function has %d samples, spin on a stack: %v", len(p.samples), found)
	}
}

var sink uint64

func spin(d time.Duration) {
	end := time.Now().Add(d)
	x := uint64(1)
	for time.Now().Before(end) {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	sink = x
}
