package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"time"

	"svard/internal/cache"
	"svard/internal/campaign"
	"svard/internal/rng"
	"svard/internal/sim"
	"svard/internal/trace"
)

// sizes are the input sizes of every workload. fullSizes is what the
// benchmark measures; smallSizes is the reduced size the tests' smoke
// runs use.
type sizes struct {
	// fig12-cold: one 4-core campaign per round, five defenses, these
	// nRHs, Svärd on and off, on fig12Mixes memory-intensive mixes.
	fig12Instr, fig12Warmup uint64
	fig12NRHs               []float64
	fig12Mixes              int
	noSkipSamples           int // cells recomputed per-cycle after the timed region

	// population-cold: popModules synthetic modules at popRows rows per
	// bank, one defense and nRH, popChunk modules resident at a time.
	popModules, popRows, popChunk int
	popInstr, popWarmup           uint64

	// served-mixed: a pool of shared cells filled at set-up, then
	// closed-loop campaigns drawn from it.
	servedInstr, servedWarmup uint64
	servedPoolNRHs            []float64
	servedPoolMixes           int
	servedRound               int // campaigns per client per round; the last adds new cells
	servedMinCampaigns        int // per run, both clients together
	httpSamples               int // cells fetched over HTTP and recomputed directly

	// fabric-cold: one campaign of small cells per set-up and round,
	// leased in the coordinator's default batch size.
	fabricInstr, fabricWarmup uint64
	fabricNRHs                []float64
	fabricMixes               int

	setupReps    int // set-ups per run; a round runs one campaign per set-up
	tracedRounds int // rounds in a traced pass (fixed, so counts repeat)
}

var fullSizes = sizes{
	fig12Instr: 15_000, fig12Warmup: 3_000, fig12NRHs: []float64{1024, 256, 64}, fig12Mixes: 2,
	noSkipSamples: 2,

	popModules: 30, popRows: 8192, popChunk: 2, popInstr: 2_000, popWarmup: 500,

	servedInstr: 1_000, servedWarmup: 250, servedPoolNRHs: []float64{1024, 512, 256, 128}, servedPoolMixes: 2,
	servedRound: 64, servedMinCampaigns: 200, httpSamples: 3,

	fabricInstr: 5_000, fabricWarmup: 1_000, fabricNRHs: []float64{1024, 512, 256, 128}, fabricMixes: 2,

	setupReps: 5, tracedRounds: 1,
}

var smallSizes = sizes{
	fig12Instr: 3_000, fig12Warmup: 600, fig12NRHs: []float64{1024, 64}, fig12Mixes: 1,
	noSkipSamples: 1,

	popModules: 2, popRows: 8192, popChunk: 1, popInstr: 1_000, popWarmup: 200,

	servedInstr: 1_000, servedWarmup: 200, servedPoolNRHs: []float64{1024, 256}, servedPoolMixes: 1,
	servedRound: 4, servedMinCampaigns: 8, httpSamples: 1,

	fabricInstr: 1_000, fabricWarmup: 200, fabricNRHs: []float64{1024, 64}, fabricMixes: 1,

	setupReps: 2, tracedRounds: 1,
}

// intensive are the catalog workloads with at most six non-memory
// instructions between accesses and mostly random blocks: the
// activation-heavy mixes Fig. 12's defenses act on. Streaming workloads
// hit open rows, so on them a defense barely acts and the Svärd versus
// fixed-threshold comparison is noise.
func intensive() []string {
	var out []string
	for _, w := range trace.Catalog() {
		if w.GapMean <= 6 && w.SeqProb <= 0.15 {
			out = append(out, w.Name)
		}
	}
	return out
}

// seeded returns the benchmark's random stream for one purpose.
func seeded(seed uint64, stream uint64) *rng.Rand { return rng.At(seed, 0xB3C4000+stream) }

// mixes returns mixes first..first+n-1 of `cores` memory-intensive
// workloads. Mix i takes the next `cores` workloads of the intensive
// list in turn, so which workloads a mix holds, and with them the
// campaign's cost, does not depend on the seed; the seed shuffles which
// core runs which.
func mixes(r *rng.Rand, first, n, cores int) [][]string {
	pool := intensive()
	out := make([][]string, n)
	for i := range out {
		for c := 0; c < cores; c++ {
			out[i] = append(out[i], pool[((first+i)*cores+c)%len(pool)])
		}
		r.Shuffle(cores, func(a, b int) { out[i][a], out[i][b] = out[i][b], out[i][a] })
	}
	return out
}

// setupSeed derives the simulation seed of set-up k. Each set-up
// calibrates the module instance of its own seed, so every set-up does
// the same work.
func setupSeed(seed uint64, k int) uint64 {
	return seeded(seed, 1000+uint64(k)).Uint64()%1_000_000 + 1
}

// openStore opens a fresh result store in a new directory under parent.
func openStore(parent, name string) (*cache.Store, error) {
	dir := filepath.Join(parent, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return cache.Open(dir, 0)
}

// calibrate builds a module of the campaign's geometry and warms one
// run-state arena per worker through direct simulator calls, outside any
// measured store.
func calibrate(spec campaign.Spec, module string) error {
	cfg := spec.Base
	cfg.ModuleLabel, cfg.Mix = module, spec.Mixes[0]
	cfg.Defense, cfg.NRH, cfg.Svard = "none", 0, false
	cfg.InstrPerCore, cfg.WarmupPerCore = 200, 0
	var wg sync.WaitGroup
	errs := make([]error, workers())
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = sim.PooledRun(cfg)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("calibrate: %w", err)
		}
	}
	return nil
}

// sameResult reports whether two results are bit-identical.
func sameResult(a, b sim.Result) bool { return reflect.DeepEqual(a, b) }

// since is time.Since, named for the set-up timings.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
