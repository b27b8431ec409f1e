package main

import (
	"context"
	"fmt"
	"time"

	"svard/internal/cache"
	"svard/internal/campaign"
	"svard/internal/obs"
	"svard/internal/sim"
)

// fig12Spec is set-up k's cold Fig. 12 campaign: five defenses x the
// nRH sweep x Svärd on/off on an S0 module calibrated from the seed,
// over memory-intensive 4-core mixes shuffled by the seed.
func fig12Spec(seed uint64, k int, sz sizes) campaign.Spec {
	base := sim.DefaultConfig()
	base.Cores = 4
	base.InstrPerCore, base.WarmupPerCore = sz.fig12Instr, sz.fig12Warmup
	base.Seed = setupSeed(seed, k)
	return campaign.Spec{
		Name:     fmt.Sprintf("fig12-cold seed %d module %d", seed, k),
		Figures:  []string{campaign.Fig12},
		Base:     base,
		Mixes:    mixes(seeded(seed, 1+uint64(k)), k*sz.fig12Mixes, sz.fig12Mixes, base.Cores),
		NRHs:     sz.fig12NRHs,
		Defenses: sim.DefenseNames,
		Profiles: []string{"S0"},
	}.Normalized()
}

func fig12Specs(seed uint64, sz sizes) map[string]any {
	out := map[string]any{}
	for k := 0; k < sz.setupReps; k++ {
		out[fmt.Sprintf("fig12-cold-%d.json", k)] = fig12Spec(seed, k, sz)
	}
	return out
}

// runFig12 runs cold Fig. 12 campaigns back to back through
// campaign.Engine with one worker per processor. Set-up calibrates one
// module per set-up seed; a round runs one campaign per seed, each on a
// fresh store, so every round does the same work.
func runFig12(b *bench) error {
	meter := &simMeter{tr: b.tr}
	var (
		setups   []float64
		specs    []campaign.Spec
		stores   []*cache.Store
		walls    []float64
		stats    storeTotals
		first    *cache.Store
		firstJob campaign.Spec
	)
	for k := 0; k < b.sz.setupReps; k++ {
		t0 := time.Now()
		spec := fig12Spec(b.seed, k, b.sz)
		store, err := openStore(b.dir, fmt.Sprintf("setup%d", k))
		if err != nil {
			return err
		}
		if err := calibrate(spec, spec.Profiles[0]); err != nil {
			return err
		}
		setups = append(setups, since(t0))
		specs, stores = append(specs, spec), append(stores, store)
	}
	settle()
	if err := b.timedStart(); err != nil {
		return err
	}
	measured, cells, err := b.timedRounds(func(i int) (time.Duration, int, error) {
		var (
			measured time.Duration
			cells    int
		)
		for k, spec := range specs {
			store := stores[k]
			if i > 0 {
				var err error
				if store, err = openStore(b.dir, fmt.Sprintf("round%d-%d", i, k)); err != nil {
					return 0, 0, err
				}
			}
			eng := &campaign.Engine{Store: store, Workers: workers(), Sim: meter.wrap(sim.PooledRun)}
			if b.tr != nil {
				eng.Trace = obs.NewTrace()
				eng.SimRecorded = meter.wrapRecorded(sim.PooledRunRecorded)
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
			measured += wall
			walls = append(walls, ms(wall))
			cells += out.Total
			stats.add(store.Stats())
			b.checkFig12(spec, out)
			if i == 0 && k == 0 {
				first, firstJob = store, spec
			}
		}
		return measured, cells, nil
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
		b.setLayer("profile.calibrate_ms_per_module", 0)
		b.absent["profile.calibrate_ms_per_module"] = "modules are calibrated in set-up, outside the campaign"
		b.notExercised("no service on this workload", serviceLayers...)
		b.notExercised("no fabric on this workload", fabricLayers...)
	}
	return b.checkNoSkip(first, firstJob)
}

// checkFig12 checks one campaign's outcome: every cell computed, no
// bitflip anywhere, and at the lowest nRH Svärd's harmonic speedup at
// least the fixed-threshold one for every defense (Fig. 12's direction).
func (b *bench) checkFig12(spec campaign.Spec, out *campaign.Outcome) {
	b.check(out.Computed == out.Total && out.Served == 0,
		"%s: computed %d of %d cells (served %d), want all computed", spec.Name, out.Computed, out.Total, out.Served)
	var flips uint64
	for _, c := range out.Fig12 {
		flips += c.Violations
	}
	b.check(flips == 0, "%s: %d bitflips, want 0", spec.Name, flips)
	lowest := spec.NRHs[0]
	for _, n := range spec.NRHs {
		lowest = min(lowest, n)
	}
	for _, d := range spec.Defenses {
		var fixed, svard *sim.Fig12Cell
		for i := range out.Fig12 {
			c := &out.Fig12[i]
			if c.Defense != d || c.NRH != lowest {
				continue
			}
			if c.Config == "NoSvard" {
				fixed = c
			} else {
				svard = c
			}
		}
		ok := fixed != nil && svard != nil && svard.HS >= fixed.HS
		hs := func(c *sim.Fig12Cell) float64 {
			if c == nil {
				return -1
			}
			return c.HS
		}
		b.check(ok, "%s: %s at nRH=%v: Svärd HS %.4f < fixed HS %.4f", spec.Name, d, lowest, hs(svard), hs(fixed))
	}
}

// checkNoSkip recomputes a seeded sample of the first campaign's cells
// with the per-cycle reference loop and checks them bit-identical to the
// cached results.
func (b *bench) checkNoSkip(store *cache.Store, spec campaign.Spec) error {
	jobs, err := spec.Jobs()
	if err != nil {
		return err
	}
	r := seeded(b.seed, 2)
	for i := 0; i < b.sz.noSkipSamples; i++ {
		cfg := jobs[r.Intn(len(jobs))].Config
		got, ok := store.Get(cache.Key(cfg))
		ref := cfg
		ref.NoSkip = true
		want, err := sim.Run(ref)
		if err != nil {
			return err
		}
		b.check(ok && sameResult(got, want), "%s: cell %s differs from the per-cycle reference", spec.Name, campaign.CellLabel(cfg))
	}
	return nil
}
