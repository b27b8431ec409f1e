package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"svard/internal/cache"
	"svard/internal/campaign"
	"svard/internal/client"
	"svard/internal/fabric"
	"svard/internal/sim"
)

// fabricSpec is set-up k's cold campaign of many small cells.
func fabricSpec(seed uint64, k int, sz sizes) campaign.Spec {
	base := sim.DefaultConfig()
	base.Cores = 2
	base.InstrPerCore, base.WarmupPerCore = sz.fabricInstr, sz.fabricWarmup
	base.Seed = setupSeed(seed, k)
	return campaign.Spec{
		Name:     fmt.Sprintf("fabric-cold seed %d module %d", seed, k),
		Figures:  []string{campaign.Fig12},
		Base:     base,
		Mixes:    mixes(seeded(seed, 100+uint64(k)), k*sz.fabricMixes, sz.fabricMixes, base.Cores),
		NRHs:     sz.fabricNRHs,
		Defenses: sim.DefenseNames,
		Profiles: []string{"S0"},
	}.Normalized()
}

func fabricSpecs(seed uint64, sz sizes) map[string]any {
	out := map[string]any{}
	for k := 0; k < sz.setupReps; k++ {
		out[fmt.Sprintf("fabric-cold-%d.json", k)] = fabricSpec(seed, k, sz)
	}
	return out
}

// cluster is one in-process fabric: a coordinator on a loopback
// listener and two svard-served workers (one slot each) that registered
// through fabric.Agent and mount the coordinator's object store as their
// cache's remote layer.
type cluster struct {
	coord   *fabric.Coordinator
	store   *cache.Store
	hs      *http.Server
	h       *handler
	served  chan struct{}
	workers []*service

	stopAgents context.CancelFunc
	agents     sync.WaitGroup

	mu      sync.Mutex
	batches []span // compute requests the workers served
}

func startCluster(dir string, b *bench, meter *simMeter) (*cluster, error) {
	store, err := openStore(dir, "coordinator")
	if err != nil {
		return nil, err
	}
	coord, err := fabric.New(fabric.Config{Store: store, Workers: workers(), MinWorkers: 2})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	registered := make(chan struct{}, 2) // one per worker
	c := &cluster{coord: coord, store: store, served: make(chan struct{})}
	c.h = wrapHandler(coord.Handler(), b.tr, "coordinator", func(route string, status int, _ time.Time) {
		if route == "POST /api/v1/workers" && status == http.StatusOK {
			select {
			case registered <- struct{}{}:
			default: // a re-registration after set-up
			}
		}
	})
	c.hs = &http.Server{Handler: c.h}
	url := "http://" + ln.Addr().String()
	go func() {
		defer close(c.served)
		c.hs.Serve(ln)
	}()

	ctx, cancel := context.WithCancel(context.Background())
	c.stopAgents = cancel
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("worker%d", i)
		w, err := startService(fmt.Sprintf("%s/%s", dir, name), b.tr, name, 1, meter.wrap(sim.Run),
			client.NewCacheRemote(url, client.Policy{}), c.noteBatch)
		if err != nil {
			c.stop()
			return nil, err
		}
		c.workers = append(c.workers, w)
		a := &fabric.Agent{Fabric: url, Advertise: w.url, Name: name}
		c.agents.Add(1)
		go func() {
			defer c.agents.Done()
			a.Run(ctx)
		}()
	}
	for i := 0; i < 2; i++ {
		select {
		case <-registered:
		case <-time.After(time.Minute): // never taken on loopback; fails loudly instead of hanging
			c.stop()
			return nil, fmt.Errorf("fabric workers did not register within a minute")
		}
	}
	return c, nil
}

func (c *cluster) noteBatch(route string, _ int, start time.Time) {
	if route != "POST /api/v1/compute" {
		return
	}
	c.mu.Lock()
	c.batches = append(c.batches, span{start: start, end: time.Now()})
	c.mu.Unlock()
}

// stop ends the agents, then the workers, then the coordinator's
// listener, waiting for each.
func (c *cluster) stop() error {
	c.stopAgents()
	c.agents.Wait()
	var first error
	for _, w := range c.workers {
		if err := w.stop(); err != nil && first == nil {
			first = err
		}
	}
	c.hs.Close()
	<-c.served
	return first
}

// runFabric runs cold campaigns, each through a fresh in-process
// fabric. Set-up starts a fabric and calibrates one module per set-up
// seed; a round runs one campaign per seed.
func runFabric(b *bench) error {
	meter := &simMeter{tr: b.tr}
	var (
		setups, walls, batchMs, folds, idle []float64
		puts, gets                          []time.Duration
		batches, redispatched, local        int
		remoteHits, remoteErrors, writes    uint64
		specs                               []campaign.Spec
		ready                               []*cluster // set-up's fabrics, each used by round 0
	)
	defer func() {
		for _, c := range ready {
			if c != nil {
				c.stop()
			}
		}
	}()
	for k := 0; k < b.sz.setupReps; k++ {
		t0 := time.Now()
		spec := fabricSpec(b.seed, k, b.sz)
		c, err := startCluster(fmt.Sprintf("%s/setup%d", b.dir, k), b, meter)
		if err != nil {
			return err
		}
		ready = append(ready, c)
		if err := calibrate(spec, spec.Profiles[0]); err != nil {
			return err
		}
		setups = append(setups, since(t0))
		specs = append(specs, spec)
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
			c := ready[k]
			ready[k] = nil
			if i > 0 {
				var err error
				if c, err = startCluster(fmt.Sprintf("%s/round%d-%d", b.dir, i, k), b, meter); err != nil {
					return 0, 0, err
				}
			}
			start := time.Now()
			res, err := c.coord.RunCtx(context.Background(), spec)
			end := time.Now()
			b.tr.span("Coordinator.RunCtx "+spec.Name, "campaign", start, nil)
			if err == nil {
				b.check(res.Computed == res.Total && res.Dispatch.Redispatched == 0 && res.Dispatch.LocalCells == 0,
					"%s: computed %d of %d, %s", spec.Name, res.Computed, res.Total, res.Dispatch)
				if i == 0 && k == 0 {
					err = b.checkFabricSamples(c.store, spec)
				}
			}
			if serr := c.stop(); err == nil {
				err = serr
			}
			if err != nil {
				return 0, 0, err
			}
			wall := end.Sub(start)
			measured += wall
			walls = append(walls, ms(wall))
			cells += res.Total
			batches += res.Dispatch.Batches
			redispatched += res.Dispatch.Redispatched
			local += res.Dispatch.LocalCells
			for _, w := range c.workers {
				st := w.store.Stats()
				remoteHits += st.RemoteHits
				remoteErrors += st.RemoteErrors
				writes += st.Writes
			}
			var busy time.Duration
			last := start
			for _, s := range c.batches {
				batchMs = append(batchMs, ms(s.end.Sub(s.start)))
				busy += s.end.Sub(s.start)
				if s.end.After(last) {
					last = s.end
				}
			}
			folds = append(folds, ms(end.Sub(last)))
			idle = append(idle, 1-ratio(busy.Seconds(), 2*last.Sub(start).Seconds()))
			puts = append(puts, c.h.durations("PUT /api/v1/objects/{id}")...)
			gets = append(gets, c.h.durations("GET /api/v1/objects/{id}")...)
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
		b.setLayer("fabric.batch_ms_p50", median(batchMs))
		b.setLayer("fabric.batches", float64(batches))
		b.setLayer("fabric.worker_idle_frac", median(idle))
		b.setLayer("fabric.object_put_ms_p50", median(msOf(puts)))
		b.setLayer("fabric.object_get_ms_p50", median(msOf(gets)))
		b.setLayer("fabric.fold_ms", median(folds))
		b.setLayer("fabric.redispatched", float64(redispatched))
		b.setLayer("fabric.local_cells", float64(local))
		b.setLayer("cache.remote_hits", float64(remoteHits))
		b.setLayer("cache.remote_errors", float64(remoteErrors))
		b.setLayer("exec.worker_busy_frac", meter.busySeconds()/(measured.Seconds()*2))
		b.setLayer("cache.hit_ratio", 0)
		b.absent["cache.hit_ratio"] = "every store is cold; remote hits are counted in cache.remote_hits"
		b.setLayer("cache.writes", float64(writes))
		b.setLayer("profile.calibrate_ms_per_module", 0)
		b.absent["profile.calibrate_ms_per_module"] = "modules are calibrated in set-up, outside the campaign"
		b.notExercised("no job API on this workload: the fabric sends raw cell batches", serviceLayers...)
	}
	return nil
}

// checkFabricSamples checks a seeded sample of the campaign's cells, as
// the coordinator's store holds them, bit-identical to a direct sim.Run.
func (b *bench) checkFabricSamples(store *cache.Store, spec campaign.Spec) error {
	jobs, err := spec.Jobs()
	if err != nil {
		return err
	}
	r := seeded(b.seed, 7)
	for i := 0; i < b.sz.httpSamples; i++ {
		cfg := jobs[r.Intn(len(jobs))].Config
		got, ok := store.Get(cache.Key(cfg))
		want, err := sim.Run(cfg)
		if err != nil {
			return err
		}
		b.check(ok && sameResult(got, want), "%s: cell %s differs from a direct sim.Run", spec.Name, campaign.CellLabel(cfg))
	}
	return nil
}
