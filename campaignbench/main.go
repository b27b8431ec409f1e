// Command campaignbench measures whole Svärd campaigns end to end and
// layer by layer: the cycle-level simulator (fig12-cold), module
// calibration (population-cold), the campaign service (served-mixed)
// and the distributed fabric (fabric-cold). Each run builds its inputs
// from --seed, measures for about --seconds, checks every output against
// properties or an independent computation, and prints one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
// are the per-layer ones, from a second, traced pass that also writes a
// Chrome trace. See README.md for the workloads and what each metric
// should move.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is the seed a run uses when --seed is not given.
const defaultSeed = 1

// metricDecl declares one reported metric; BENCHMARK.json mirrors these
// lists (pinned by TestMetricsMatchBenchmarkJSON).
type metricDecl struct {
	Name, Unit, Better string
}

// endToEnd are the metrics a campaign's user sees. Every workload reports
// every one of them.
var endToEnd = []metricDecl{
	{"setup_s", "s", "lower"},
	{"cells_per_s", "1/s", "higher"},
	{"sim_minstr_per_s", "Minstr/s", "higher"},
	{"campaign_p50_ms", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the traced run's metrics. A metric whose layer a workload
// does not exercise reads 0, and the run names it on standard error.
var perLayer = []metricDecl{
	{"sim.run_ms_per_cell", "ms", "lower"},
	{"sim.warmup_ms_per_cell", "ms", "lower"},
	{"sim.build_ms_per_cell", "ms", "lower"},
	{"sim.ticks_per_cell", "count", "lower"},
	{"sim.skipped_cycle_frac", "frac", "higher"},
	{"sim.engine_cpu_share", "frac", "lower"},
	{"sim.tracker_cpu_share", "frac", "lower"},
	{"memctrl.next_event_cpu_share", "frac", "lower"},
	{"memctrl.schedule_cpu_share", "frac", "lower"},
	{"memctrl.scan_entries_per_pass", "count", "lower"},
	{"memctrl.scan_passes_per_cell", "count", "lower"},
	{"cpu.tick_cpu_share", "frac", "lower"},
	{"mitigation.cpu_share", "frac", "lower"},
	{"mitigation.directives_per_cell", "count", "lower"},
	{"profile.calibrate_ms_per_module", "ms", "lower"},
	{"profile.cpu_share", "frac", "lower"},
	{"population.cpu_share", "frac", "lower"},
	{"cache.hit_ratio", "frac", "higher"},
	{"cache.lookup_ms_p50", "ms", "lower"},
	{"cache.writes", "count", "lower"},
	{"cache.remote_hits", "count", "higher"},
	{"cache.remote_errors", "count", "lower"},
	{"campaign.wait_ms_per_cell", "ms", "lower"},
	{"exec.worker_busy_frac", "frac", "higher"},
	{"server.submit_ms_p50", "ms", "lower"},
	{"server.queue_ms_p50", "ms", "lower"},
	{"server.job_run_ms_p50", "ms", "lower"},
	{"server.stream_ms_p50", "ms", "lower"},
	{"server.result_ms_p50", "ms", "lower"},
	{"server.campaign_p95_ms", "ms", "lower"},
	{"server.http_requests_per_campaign", "count", "lower"},
	{"server.cpu_share", "frac", "lower"},
	{"fabric.batch_ms_p50", "ms", "lower"},
	{"fabric.batches", "count", "lower"},
	{"fabric.worker_idle_frac", "frac", "lower"},
	{"fabric.object_put_ms_p50", "ms", "lower"},
	{"fabric.object_get_ms_p50", "ms", "lower"},
	{"fabric.fold_ms", "ms", "lower"},
	{"fabric.redispatched", "count", "lower"},
	{"fabric.local_cells", "count", "lower"},
	{"runtime.allocs_per_cell", "count", "lower"},
	{"runtime.gc_cpu_share", "frac", "lower"},
	{"trace.overhead_frac", "frac", "lower"},
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	// run measures the workload for b.seconds and fills b's metrics.
	run func(b *bench) error
	// specs returns the campaigns a run generates, keyed by file name,
	// for --write-specs.
	specs func(seed uint64, sz sizes) map[string]any
}

var workloads = []workload{
	{"fig12-cold", "cold Fig. 12 campaigns on calibrated modules: the simulator hot loop dominates", runFig12, fig12Specs},
	{"population-cold", "cold population campaign: calibrating each synthetic module dominates", runPopulation, populationSpecs},
	{"served-mixed", "two closed-loop clients of svard-served over HTTP: mostly cache hits, a few new cells", runServed, servedSpecs},
	{"fabric-cold", "cold campaign leased across two fabric workers sharing the coordinator's object store", runFabric, fabricSpecs},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// output is the last line a run prints.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		name       = flag.String("workload", "", "workload to run: fig12-cold, population-cold, served-mixed, fabric-cold")
		seed       = flag.Uint64("seed", defaultSeed, "seed the workload's inputs are generated from")
		seconds    = flag.Float64("seconds", 15, "how long to measure")
		traced     = flag.Int("trace", 0, "1: print the per-layer metrics from a traced pass and write a Chrome trace")
		out        = flag.String("out", filepath.Join(".bench_build", "campaignbench"), "directory for scratch stores and traces")
		steady     = flag.Int("steady", 0, "run the workload this many times (seeds seed, seed+1, ...) in child processes and print each metric's median and quartiles")
		writeSpecs = flag.String("write-specs", "", "write the workload's generated campaigns as svard-sweep -spec JSON files into this directory and exit")
	)
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok {
		fatalf("unknown workload %q", *name)
	}
	switch {
	case *writeSpecs != "":
		if err := writeSpecFiles(*writeSpecs, w.specs(*seed, fullSizes)); err != nil {
			fatalf("%v", err)
		}
		return
	case *steady > 0:
		if err := steadiness(*steady); err != nil {
			fatalf("%v", err)
		}
		return
	}
	o, err := runOnce(w, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1, fullSizes, *out)
	if err != nil {
		fatalf("%v", err)
	}
	line, err := json.Marshal(o)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "campaignbench: "+format+"\n", args...)
	os.Exit(1)
}

// runOnce runs one workload and assembles its output line. A traced run
// first makes an untraced pass; trace.overhead_frac compares the traced
// pass's cells_per_s with the untraced pass's over the same number of
// first rounds.
func runOnce(w workload, seed uint64, seconds time.Duration, traced bool, sz sizes, outDir string) (*output, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	b := newBench(seed, seconds, sz, filepath.Join(dir, "plain"))
	if err := w.run(b); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	o := &output{Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	if !traced {
		b.e2e["peak_rss_mb"] = peakRSSMB()
		for _, d := range endToEnd {
			v, ok := b.e2e[d.Name]
			if !ok || v <= 0 {
				return nil, fmt.Errorf("%s: end-to-end metric %s not measured (%v)", w.name, d.Name, v)
			}
			o.Metrics[d.Name] = metric{v, d.Unit}
		}
	} else {
		tb := newBench(seed, seconds, sz, filepath.Join(dir, "traced"))
		tb.tr = newTracer()
		tracePath := filepath.Join(outDir, fmt.Sprintf("trace-%s-%d.json", w.name, seed))
		if err := tb.traced(w, tracePath); err != nil {
			return nil, fmt.Errorf("%s traced: %w", w.name, err)
		}
		tb.layer["trace.overhead_frac"] = ratio(b.fixedRate, tb.e2e["cells_per_s"]) - 1
		o.Attempted += tb.attempted
		o.Failed += tb.failed
		var absent []string
		for _, d := range perLayer {
			v, ok := tb.layer[d.Name]
			if !ok {
				return nil, fmt.Errorf("%s: per-layer metric %s not computed", w.name, d.Name)
			}
			if why, ok := tb.absent[d.Name]; ok {
				absent = append(absent, d.Name+": "+why)
			}
			o.Metrics[d.Name] = metric{v, d.Unit}
		}
		printLayerTable(w.name, o.Metrics, tb.absent, tracePath)
		if len(absent) > 0 {
			fmt.Fprintf(os.Stderr, "campaignbench: %s: reads 0 here:\n  %s\n", w.name, strings.Join(absent, "\n  "))
		}
	}
	o.Correct = o.Failed == 0
	return o, nil
}

// printLayerTable prints the per-layer table to standard error, so the
// last line of standard output stays the JSON result.
func printLayerTable(name string, ms map[string]metric, absent map[string]string, tracePath string) {
	fmt.Fprintf(os.Stderr, "per-layer metrics, %s (trace: %s)\n", name, tracePath)
	for _, d := range perLayer {
		note := ""
		if _, ok := absent[d.Name]; ok {
			note = "  (not exercised)"
		}
		fmt.Fprintf(os.Stderr, "  %-34s %14.6g %-6s%s\n", d.Name, ms[d.Name].Value, d.Unit, note)
	}
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// writeSpecFiles writes each generated campaign as indented JSON.
func writeSpecFiles(dir string, specs map[string]any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	names := make([]string, 0, len(specs))
	for n := range specs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		b, err := json.MarshalIndent(specs[n], "", "  ")
		if err != nil {
			return err
		}
		p := filepath.Join(dir, n)
		if err := os.WriteFile(p, append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Println(p)
	}
	return nil
}

// steadiness reruns this program n times, one child process at a time,
// on seeds seed..seed+n-1 with the other flags unchanged, and prints
// each metric's median and quartiles and the quartile spread as a share
// of the median.
func steadiness(n int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	seed := uint64(defaultSeed)
	var args []string
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "steady":
		case "seed":
			seed, _ = strconv.ParseUint(f.Value.String(), 10, 64)
		default:
			args = append(args, "--"+f.Name, f.Value.String())
		}
	})
	values := map[string][]float64{}
	units := map[string]string{}
	failed, attempted := 0, 0
	for i := 0; i < n; i++ {
		cmd := exec.Command(self, append(args, "--seed", strconv.FormatUint(seed+uint64(i), 10))...)
		cmd.Stderr = os.Stderr
		raw, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run %d: %w", i, err)
		}
		var o output
		if err := json.Unmarshal(lastLine(raw), &o); err != nil {
			return fmt.Errorf("run %d: %w", i, err)
		}
		attempted += o.Attempted
		failed += o.Failed
		keys := make([]string, 0, len(o.Metrics))
		for k, m := range o.Metrics {
			values[k] = append(values[k], m.Value)
			units[k] = m.Unit
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Printf("seed %d:", seed+uint64(i))
		for _, k := range keys {
			fmt.Printf(" %s=%.6g", k, o.Metrics[k].Value)
		}
		fmt.Println()
	}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("%d runs, seeds %d..%d: %d of %d operations failed\n", n, seed, seed+uint64(n)-1, failed, attempted)
	fmt.Printf("%-34s %12s %12s %12s %9s  %s\n", "metric", "q1", "median", "q3", "iqr/med", "unit")
	for _, k := range names {
		q1, q2, q3 := quartiles(values[k])
		fmt.Printf("%-34s %12.6g %12.6g %12.6g %9.4f  %s\n", k, q1, q2, q3, ratio(q3-q1, q2), units[k])
	}
	return nil
}

func lastLine(b []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		if l := bytes.TrimSpace(sc.Bytes()); len(l) > 0 {
			last = append(last[:0], l...)
		}
	}
	return last
}

// workers is the benchmark's parallelism: generated load never uses
// more threads than the machine has processors.
func workers() int { return runtime.NumCPU() }
