package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"svard/internal/cache"
	"svard/internal/campaign"
	"svard/internal/obs"
	"svard/internal/sim"
)

// bench is one pass over a workload: its inputs, the accounting of the
// checks it made, and the metrics it measured.
type bench struct {
	seed    uint64
	seconds time.Duration
	sz      sizes
	dir     string  // scratch directory for this pass's stores
	tr      *tracer // nil: untraced pass

	mu        sync.Mutex
	attempted int // operations: one per check made
	failed    int // checks that did not hold
	cells     int // campaign cells completed in the timed region
	// fixedRate is cells_per_s over the rounds a traced pass runs, taken
	// in the untraced pass: trace.overhead_frac compares like with like.
	fixedRate float64

	e2e    map[string]float64
	layer  map[string]float64
	absent map[string]string // per-layer metric -> why this workload leaves it at 0

	prof     bytes.Buffer  // traced pass: CPU profile of the timed region
	rt0, rt1 runtimeSample // traced pass: runtime counters around it
}

func newBench(seed uint64, seconds time.Duration, sz sizes, dir string) *bench {
	return &bench{
		seed: seed, seconds: seconds, sz: sz, dir: dir,
		e2e: map[string]float64{}, layer: map[string]float64{}, absent: map[string]string{},
	}
}

// check counts one operation, and a failure when ok is false.
func (b *bench) check(ok bool, format string, args ...any) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if !ok {
		b.failed++
		fmt.Fprintf(os.Stderr, "campaignbench: check failed: "+format+"\n", args...)
	}
	return ok
}

// notExercised sets per-layer metrics the workload does not reach to 0,
// with the reason the traced run prints.
func (b *bench) notExercised(why string, names ...string) {
	for _, n := range names {
		b.layer[n] = 0
		b.absent[n] = why
	}
}

// serviceLayers and fabricLayers are the per-layer metrics of the job API
// and of the fabric, which only served-mixed and fabric-cold exercise.
var (
	serviceLayers = []string{"server.submit_ms_p50", "server.queue_ms_p50", "server.job_run_ms_p50",
		"server.stream_ms_p50", "server.result_ms_p50", "server.campaign_p95_ms", "server.http_requests_per_campaign"}
	fabricLayers = []string{"fabric.batch_ms_p50", "fabric.batches", "fabric.worker_idle_frac",
		"fabric.object_put_ms_p50", "fabric.object_get_ms_p50", "fabric.fold_ms", "fabric.redispatched",
		"fabric.local_cells", "cache.remote_hits", "cache.remote_errors"}
)

// storeTotals sums result-store counters over a pass's stores.
type storeTotals struct{ hits, misses, writes uint64 }

func (t *storeTotals) add(st cache.Stats) {
	t.hits += st.Hits()
	t.misses += st.Misses
	t.writes += st.Writes
}

// setCacheLayers records the cache metrics of the summed stores.
func (b *bench) setCacheLayers(t storeTotals) {
	b.setLayer("cache.hit_ratio", ratio(float64(t.hits), float64(t.hits+t.misses)))
	b.setLayer("cache.writes", float64(t.writes))
}

// setLayer records a per-layer metric.
func (b *bench) setLayer(name string, v float64) { b.layer[name] = v }

// simMeter wraps the simulator entry points a workload hands to the
// program, timing every call from outside: simulated instructions over
// host seconds inside the simulator is sim_minstr_per_s.
type simMeter struct {
	tr    *tracer
	instr atomic.Uint64 // simulated instructions, all cores, warmup included
	busy  atomic.Int64  // nanoseconds inside simulator calls
}

func (m *simMeter) note(cfg sim.Config, start time.Time) {
	d := time.Since(start)
	m.instr.Add(uint64(cfg.Cores) * (cfg.InstrPerCore + cfg.WarmupPerCore))
	m.busy.Add(int64(d))
	m.tr.span("sim "+campaign.CellLabel(cfg), "runner", start, nil)
}

// wrap times a plain runner.
func (m *simMeter) wrap(run sim.Runner) sim.Runner {
	return func(cfg sim.Config) (sim.Result, error) {
		start := time.Now()
		res, err := run(cfg)
		if err == nil {
			m.note(cfg, start)
		}
		return res, err
	}
}

// wrapRecorded times a recorded runner.
func (m *simMeter) wrapRecorded(run campaign.RecordedRunner) campaign.RecordedRunner {
	return func(cfg sim.Config, rec *obs.Recorder) (sim.Result, error) {
		start := time.Now()
		res, err := run(cfg, rec)
		if err == nil {
			m.note(cfg, start)
		}
		return res, err
	}
}

// minstrPerS is simulated instructions per host second inside the
// simulator, in millions.
func (m *simMeter) minstrPerS() float64 {
	return ratio(float64(m.instr.Load())/1e6, time.Duration(m.busy.Load()).Seconds())
}

// busySeconds is the host time spent inside simulator calls.
func (m *simMeter) busySeconds() float64 { return time.Duration(m.busy.Load()).Seconds() }

// runtimeSample reads the Go runtime's allocation and CPU counters.
type runtimeSample struct{ allocs, gcCPU, totalCPU float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return runtimeSample{val(s[0].Value), val(s[1].Value), val(s[2].Value)}
}

// settle collects set-up's garbage before the timed region, so every run
// measures from the same heap state whatever the collector's timing
// during set-up was.
func settle() { runtime.GC() }

// timedRounds runs round(i) for i = 0, 1, ... until at least b.seconds of
// measured time has accumulated, and returns the measured time and the
// cells the rounds completed. Each round reports the part of its wall
// time that was measured, so per-round set-up stays out of the timed
// region. Only whole rounds run. A traced pass runs a fixed number of
// rounds instead, so its deterministic counts repeat exactly from run to
// run; an untraced pass notes its rate over that many first rounds, the
// figure trace.overhead_frac compares the traced pass with.
func (b *bench) timedRounds(round func(i int) (time.Duration, int, error)) (measured time.Duration, cells int, err error) {
	for i := 0; ; i++ {
		if b.tr != nil {
			if i >= b.sz.tracedRounds {
				return measured, cells, nil
			}
		} else if i > 0 && measured >= b.seconds {
			return measured, cells, nil
		}
		d, n, err := round(i)
		if err != nil {
			return measured, cells, err
		}
		measured += d
		cells += n
		if i == b.sz.tracedRounds-1 {
			b.fixedRate = float64(cells) / measured.Seconds()
		}
	}
}

// timedStart starts the traced pass's CPU profile and runtime counters
// as the workload enters its timed region; set-up and the checks after
// it stay out of the *_cpu_share metrics. Untraced, it does nothing.
func (b *bench) timedStart() error {
	if b.tr == nil {
		return nil
	}
	b.rt0 = readRuntime()
	return pprof.StartCPUProfile(&b.prof)
}

// timedStop ends what timedStart began.
func (b *bench) timedStop() {
	if b.tr == nil {
		return
	}
	pprof.StopCPUProfile()
	b.rt1 = readRuntime()
}

// traced runs the workload's traced pass, then derives the per-layer
// metrics from the CPU profile and runtime counters of its timed region,
// the spans from the benchmark's wrappers and the program's own per-cell
// traces, and writes and validates the Chrome trace.
func (b *bench) traced(w workload, path string) error {
	if err := w.run(b); err != nil {
		return err
	}
	b.setLayer("runtime.allocs_per_cell", ratio(b.rt1.allocs-b.rt0.allocs, float64(b.cells)))
	b.setLayer("runtime.gc_cpu_share", ratio(b.rt1.gcCPU-b.rt0.gcCPU, b.rt1.totalCPU-b.rt0.totalCPU))

	p, err := parseProfile(b.prof.Bytes())
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for name, share := range cpuShares(p) {
		b.setLayer(name, share)
	}
	b.layerFromCells()

	if err := b.tr.write(path); err != nil {
		return err
	}
	// The same check svard-trace -check makes.
	f, err := obs.ReadFile(path)
	if err != nil {
		return err
	}
	return f.Validate()
}

// layerFromCells derives the per-cell phase and counter metrics from the
// program's own per-cell traces folded into the tracer.
func (b *bench) layerFromCells() {
	cells := b.tr.programCells()
	var (
		run, warm, build, wait, lookup []float64
		computed                       int
		c                              = map[string]uint64{}
	)
	for _, cs := range cells {
		wait = append(wait, cs.WaitUs/1000)
		if v, ok := cs.Phases["lookup"]; ok {
			lookup = append(lookup, v/1000)
		}
		if cs.Outcome != "computed" {
			continue
		}
		computed++
		run = append(run, cs.Phases["run"]/1000)
		warm = append(warm, cs.Phases["warmup"]/1000)
		build = append(build, cs.Phases["build"]/1000)
		for k, v := range cs.Counter {
			c[k] += v
		}
	}
	mean := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return ratio(s, float64(len(xs)))
	}
	if len(cells) == 0 {
		b.notExercised("no per-cell program trace on this workload",
			"campaign.wait_ms_per_cell", "cache.lookup_ms_p50")
	} else {
		b.setLayer("campaign.wait_ms_per_cell", mean(wait))
		b.setLayer("cache.lookup_ms_p50", median(lookup))
	}
	if computed == 0 || c["sim_ticks"] == 0 {
		b.notExercised("no computed cell with simulator counters in a program trace on this workload",
			"sim.run_ms_per_cell", "sim.warmup_ms_per_cell", "sim.build_ms_per_cell",
			"sim.ticks_per_cell", "sim.skipped_cycle_frac", "memctrl.scan_entries_per_pass",
			"memctrl.scan_passes_per_cell", "mitigation.directives_per_cell")
		return
	}
	n := float64(computed)
	b.setLayer("sim.run_ms_per_cell", mean(run))
	b.setLayer("sim.warmup_ms_per_cell", mean(warm))
	b.setLayer("sim.build_ms_per_cell", mean(build))
	b.setLayer("sim.ticks_per_cell", float64(c["sim_ticks"])/n)
	b.setLayer("sim.skipped_cycle_frac", ratio(float64(c["skipped_cycles"]), float64(c["sim_ticks"]+c["skipped_cycles"])))
	b.setLayer("memctrl.scan_entries_per_pass", ratio(float64(c["scan_entries"]), float64(c["scan_passes"])))
	b.setLayer("memctrl.scan_passes_per_cell", float64(c["scan_passes"])/n)
	dirs := c["dir_refresh_victim"] + c["dir_refresh_deduped"] + c["dir_swap_rows"] + c["dir_extra_mem"]
	b.setLayer("mitigation.directives_per_cell", float64(dirs)/n)
}

// calibrateMsPerModule is profile.calibrate_ms_per_module: the build
// phase of each module's first computed cell, where the module's
// calibration runs, averaged over modules.
func calibrateMsPerModule(cells []obs.CellSummary) (float64, int) {
	first := map[string]obs.CellSummary{}
	for _, cs := range cells {
		if cs.Outcome != "computed" {
			continue
		}
		mod := moduleOfLabel(cs.Label)
		if f, ok := first[mod]; !ok || cs.TsUs < f.TsUs {
			first[mod] = cs
		}
	}
	s := 0.0
	for _, cs := range first {
		s += cs.Phases["build"] / 1000
	}
	return ratio(s, float64(len(first))), len(first)
}

// moduleOfLabel extracts the module from a campaign.CellLabel:
// "<defense> nRH=<n> <module> <svard> [<mix>]".
func moduleOfLabel(label string) string {
	f := strings.Fields(label)
	if len(f) < 3 {
		return label
	}
	return f[2]
}
