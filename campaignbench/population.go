package main

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"
	"time"

	"svard/internal/cache"
	"svard/internal/campaign"
	"svard/internal/obs"
	"svard/internal/population"
	"svard/internal/sim"
)

// binWidth is the band accumulator's resolution in sim.RunPopulation:
// [0, 8) over 8192 bins.
const binWidth = 8.0 / 8192

// populationSpec is the cold population campaign: popModules synthetic
// modules sampled from the seed, one defense and one nRH, Svärd on and
// off, tiny instruction budgets.
func populationSpec(seed uint64, sz sizes) campaign.Spec {
	base := sim.DefaultConfig()
	base.Cores = 4
	base.RowsPerBank = sz.popRows
	base.InstrPerCore, base.WarmupPerCore = sz.popInstr, sz.popWarmup
	return campaign.Spec{
		Name:       fmt.Sprintf("population-cold seed %d", seed),
		Figures:    []string{campaign.Fig12},
		Base:       base,
		Mixes:      mixes(seeded(seed, 300), 0, 1, base.Cores),
		NRHs:       []float64{64},
		Defenses:   []string{"para"},
		Population: &campaign.PopulationSpec{Seed: seed, Size: sz.popModules},
	}.Normalized()
}

func populationSpecs(seed uint64, sz sizes) map[string]any {
	return map[string]any{"population-cold.json": populationSpec(seed, sz)}
}

// cellLog keeps every cell result the wrapped runner saw.
type cellLog struct {
	mu  sync.Mutex
	res map[string]sim.Result
}

func (l *cellLog) wrap(run sim.Runner) sim.Runner {
	return func(cfg sim.Config) (sim.Result, error) {
		res, err := run(cfg)
		if err == nil {
			l.mu.Lock()
			l.res[cache.Key(cfg)] = res
			l.mu.Unlock()
		}
		return res, err
	}
}

func (l *cellLog) wrapRecorded(run campaign.RecordedRunner) campaign.RecordedRunner {
	return func(cfg sim.Config, rec *obs.Recorder) (sim.Result, error) {
		res, err := run(cfg, rec)
		if err == nil {
			l.mu.Lock()
			l.res[cache.Key(cfg)] = res
			l.mu.Unlock()
		}
		return res, err
	}
}

// runPopulation runs the cold population campaign on fresh stores. The
// population's modules are calibrated inside the measured campaign,
// which is the point; set-up only warms the run-state arenas at the
// campaign's geometry, through a Table 5 module of its own seed.
func runPopulation(b *bench) error {
	meter := &simMeter{tr: b.tr}
	spec := populationSpec(b.seed, b.sz)
	var (
		setups []float64
		walls  []float64
		stats  storeTotals
		store  *cache.Store
	)
	for k := 0; k < b.sz.setupReps; k++ {
		t0 := time.Now()
		s, err := openStore(b.dir, fmt.Sprintf("setup%d", k))
		if err != nil {
			return err
		}
		warm := spec
		warm.Base.Seed = setupSeed(b.seed, k)
		if err := calibrate(warm, "S0"); err != nil {
			return err
		}
		setups = append(setups, since(t0))
		store = s
	}
	settle()
	if err := b.timedStart(); err != nil {
		return err
	}
	measured, cells, err := b.timedRounds(func(i int) (time.Duration, int, error) {
		if i > 0 {
			var err error
			if store, err = openStore(b.dir, fmt.Sprintf("round%d", i)); err != nil {
				return 0, 0, err
			}
		}
		log := &cellLog{res: map[string]sim.Result{}}
		eng := &campaign.Engine{
			Store: store, Workers: workers(), PopulationChunk: b.sz.popChunk,
			Sim: log.wrap(meter.wrap(sim.PooledRun)),
		}
		if b.tr != nil {
			eng.Trace = obs.NewTrace()
			eng.SimRecorded = log.wrapRecorded(meter.wrapRecorded(sim.PooledRunRecorded))
		}
		start := time.Now()
		out, err := eng.RunCtx(context.Background(), spec)
		wall := time.Since(start)
		b.tr.span("Engine.RunCtx "+spec.Name, "campaign", start, nil)
		if err != nil {
			return 0, 0, err
		}
		if err := b.tr.foldTrace(eng.Trace); err != nil {
			return 0, 0, err
		}
		walls = append(walls, ms(wall))
		stats.add(store.Stats())
		if err := b.checkPopulation(spec, store, out, log); err != nil {
			return 0, 0, err
		}
		return wall, out.Total, nil
	})
	b.timedStop()
	if err != nil {
		return err
	}
	b.cells = cells
	b.e2e["setup_s"] = median(setups)
	b.e2e["cells_per_s"] = float64(cells) / measured.Seconds()
	b.e2e["sim_minstr_per_s"] = meter.minstrPerS()
	b.e2e["campaign_p50_ms"] = median(walls)
	if b.tr != nil {
		b.setLayer("exec.worker_busy_frac", meter.busySeconds()/(measured.Seconds()*float64(workers())))
		b.setCacheLayers(stats)
		cal, n := calibrateMsPerModule(b.tr.programCells())
		b.check(n == b.sz.popModules, "traced population pass saw the first cells of %d modules, want %d", n, b.sz.popModules)
		b.setLayer("profile.calibrate_ms_per_module", cal)
		b.notExercised("no service on this workload", serviceLayers...)
		b.notExercised("no fabric on this workload", fabricLayers...)
	}
	return nil
}

// checkPopulation checks the bands: ordered quantiles over every module,
// agreement within one bin with bands recomputed exactly from the cell
// results the runner saw, identical bands from a refold of the warm
// store with another chunk size on one worker, and Svärd's median at
// least the fixed-threshold one.
func (b *bench) checkPopulation(spec campaign.Spec, store *cache.Store, out *campaign.Outcome, log *cellLog) error {
	n := spec.Population.Size
	b.check(out.Computed == out.Total, "%s: computed %d of %d cells", spec.Name, out.Computed, out.Total)
	for _, c := range out.Bands {
		for _, band := range []population.Band{c.WS, c.HS, c.MS} {
			b.check(band.P5 <= band.P50 && band.P50 <= band.P95 && c.Modules == n,
				"%s: %s nRH=%v %s: p5 %.4f p50 %.4f p95 %.4f over %d modules (want ordered, %d)",
				spec.Name, c.Defense, c.NRH, c.Config, band.P5, band.P50, band.P95, c.Modules, n)
		}
	}

	exact, err := exactBands(spec, log)
	if err != nil {
		return err
	}
	for _, c := range out.Bands {
		want, ok := exact[bandKey{c.Defense, c.NRH, c.Config}]
		got := [3]population.Band{c.WS, c.HS, c.MS}
		agree := ok
		for m := 0; ok && m < 3; m++ {
			for q := 0; q < 3; q++ {
				agree = agree && math.Abs(quantilesOf(got[m])[q]-want[m][q]) <= binWidth
			}
		}
		b.check(agree, "%s: %s nRH=%v %s: bands %v disagree with the exact recomputation %v by more than one bin",
			spec.Name, c.Defense, c.NRH, c.Config, got, want)
	}

	refold := &campaign.Engine{Store: store, Workers: 1, PopulationChunk: b.sz.popChunk + 1, Resume: true,
		Sim: func(cfg sim.Config) (sim.Result, error) {
			return sim.Result{}, fmt.Errorf("refold recomputed cell %s of a warm store", campaign.CellLabel(cfg))
		}}
	again, err := refold.RunCtx(context.Background(), spec)
	b.check(err == nil && again != nil && reflect.DeepEqual(again.Bands, out.Bands),
		"%s: refold with chunk %d on one worker differs (err %v)", spec.Name, b.sz.popChunk+1, err)

	for _, fixed := range out.Bands {
		if fixed.Config != sim.BandNoSvard {
			continue
		}
		for _, sv := range out.Bands {
			if sv.Config == sim.BandSvard && sv.Defense == fixed.Defense && sv.NRH == fixed.NRH {
				b.check(sv.WS.P50 >= fixed.WS.P50, "%s: %s nRH=%v: Svärd WS p50 %.4f < fixed %.4f",
					spec.Name, fixed.Defense, fixed.NRH, sv.WS.P50, fixed.WS.P50)
			}
		}
	}
	return nil
}

type bandKey struct {
	defense string
	nrh     float64
	config  string
}

func quantilesOf(b population.Band) [3]float64 { return [3]float64{b.P5, b.P50, b.P95} }

// exactBands recomputes each band cell's p5/p50/p95 of weighted
// speedup, harmonic speedup and max slowdown from the per-module cell
// results, by nearest rank over the exact values.
func exactBands(spec campaign.Spec, log *cellLog) (map[bandKey][3][3]float64, error) {
	values := map[bandKey]*[3][]float64{}
	for i := 0; i < spec.Population.Size; i++ {
		label := population.Label(spec.Population.Seed, i)
		cell := func(defense string, nrh float64, svard bool, mix []string) (sim.Result, error) {
			cfg := spec.Base
			cfg.ModuleLabel, cfg.Mix, cfg.Defense, cfg.NRH, cfg.Svard = label, mix, defense, nrh, svard
			res, ok := log.res[cache.Key(cfg)]
			if !ok {
				return res, fmt.Errorf("population: runner never saw cell %s", campaign.CellLabel(cfg))
			}
			return res, nil
		}
		for _, d := range spec.Defenses {
			for _, nrh := range spec.NRHs {
				for _, svard := range []bool{false, true} {
					var ws, hs, msd float64
					for _, mix := range spec.Mixes {
						base, err := cell("none", spec.Base.NRH, false, mix)
						if err != nil {
							return nil, err
						}
						res, err := cell(d, nrh, svard, mix)
						if err != nil {
							return nil, err
						}
						w, h, m := speedups(base.IPC, res.IPC)
						ws, hs, msd = ws+w, hs+h, msd+m
					}
					k := float64(len(spec.Mixes))
					key := bandKey{d, nrh, sim.BandNoSvard}
					if svard {
						key.config = sim.BandSvard
					}
					if values[key] == nil {
						values[key] = &[3][]float64{}
					}
					v := values[key]
					v[0], v[1], v[2] = append(v[0], ws/k), append(v[1], hs/k), append(v[2], msd/k)
				}
			}
		}
	}
	out := map[bandKey][3][3]float64{}
	for key, v := range values {
		var q [3][3]float64
		for m := range v {
			s := append([]float64(nil), v[m]...)
			sort.Float64s(s)
			for j, p := range []float64{0.05, 0.50, 0.95} {
				rank := max(1, int(math.Ceil(p*float64(len(s)))))
				q[m][j] = s[rank-1]
			}
		}
		out[key] = q
	}
	return out, nil
}

// speedups computes, from first principles, the weighted speedup (mean
// of shared/alone IPC), the harmonic speedup (cores over the sum of
// slowdowns) and the maximum slowdown of one mix against its baseline.
func speedups(alone, shared []float64) (ws, hs, maxSlow float64) {
	var slowSum float64
	for c := range shared {
		ws += shared[c] / alone[c]
		slow := alone[c] / shared[c]
		slowSum += slow
		maxSlow = math.Max(maxSlow, slow)
	}
	n := float64(len(shared))
	return ws / n, n / slowSum, maxSlow
}
