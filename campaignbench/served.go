package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"svard/internal/cache"
	"svard/internal/campaign"
	"svard/internal/client"
	"svard/internal/obs"
	"svard/internal/rng"
	"svard/internal/server"
	"svard/internal/sim"
)

// servedBase is the tiny 2-core cell every served-mixed campaign uses.
func servedBase(seed uint64, rep int, sz sizes) sim.Config {
	base := sim.DefaultConfig()
	base.Cores = 2
	base.InstrPerCore, base.WarmupPerCore = sz.servedInstr, sz.servedWarmup
	base.Seed = setupSeed(seed, rep)
	return base
}

// servedPool is the campaign set-up submits to fill the shared cells:
// every defense at every pool nRH, Svärd on and off, on the pool mixes.
func servedPool(seed uint64, rep int, sz sizes) campaign.Spec {
	return campaign.Spec{
		Name:     fmt.Sprintf("served-mixed pool seed %d set-up %d", seed, rep),
		Figures:  []string{campaign.Fig12},
		Base:     servedBase(seed, rep, sz),
		Mixes:    mixes(seeded(seed, 200+uint64(rep)), 0, sz.servedPoolMixes, 2),
		NRHs:     sz.servedPoolNRHs,
		Defenses: sim.DefenseNames,
		Profiles: []string{"S0"},
	}.Normalized()
}

// servedCampaign is campaign k of one client's stream: one pool mix, two
// pool defenses and two pool nRHs, all cached. The last campaign of each
// round of `every` adds an nRH no other campaign uses: its cells are
// computed, putting cache writes beside the reads, while every other
// cell of the stream hits the cache. fresh lists the cells that campaign
// adds to the store.
func servedCampaign(pool campaign.Spec, seed uint64, clientID, k, every int) (spec campaign.Spec, fresh []sim.Config) {
	r := rng.At(seed, 0xB3C4100, uint64(clientID), uint64(k))
	defs := r.Perm(len(pool.Defenses))[:2]
	nrhs := r.Perm(len(pool.NRHs))[:2]
	spec = campaign.Spec{
		Name:     fmt.Sprintf("served-mixed seed %d client %d campaign %d", seed, clientID, k),
		Figures:  []string{campaign.Fig12},
		Base:     pool.Base,
		Mixes:    [][]string{pool.Mixes[r.Intn(len(pool.Mixes))]},
		Defenses: []string{pool.Defenses[defs[0]], pool.Defenses[defs[1]]},
		NRHs:     []float64{pool.NRHs[nrhs[0]], pool.NRHs[nrhs[1]]},
		Profiles: pool.Profiles,
	}
	if k%every == every-1 {
		nrh := float64(3000 + 2*k + clientID) // unique per (client, k); never a pool nRH
		spec.NRHs = append(spec.NRHs, nrh)
		for _, d := range spec.Defenses {
			for _, svard := range []bool{false, true} {
				cfg := spec.Base
				cfg.ModuleLabel, cfg.Mix, cfg.Defense, cfg.NRH, cfg.Svard = "S0", spec.Mixes[0], d, nrh, svard
				fresh = append(fresh, cfg)
			}
		}
	}
	return spec.Normalized(), fresh
}

func servedSpecs(seed uint64, sz sizes) map[string]any {
	pool := servedPool(seed, sz.setupReps-1, sz)
	out := map[string]any{"served-mixed-pool.json": pool}
	for c := 0; c < 2; c++ {
		for k := 0; k < 2*sz.servedRound; k++ {
			spec, _ := servedCampaign(pool, seed, c, k, sz.servedRound)
			out[fmt.Sprintf("served-mixed-client%d-campaign%02d.json", c, k)] = spec
		}
	}
	return out
}

// service is one in-process svard-served on a loopback listener, behind
// the benchmark's handler wrapper.
type service struct {
	store *cache.Store
	srv   *server.Server
	hs    *http.Server
	h     *handler
	url   string
	done  chan struct{}
}

// startService starts a service with `workers` simulation slots. run is
// the server's Config.Sim: nil computes as the daemon does, through the
// recorded simulator.
func startService(dir string, tr *tracer, label string, workers int, run sim.Runner, remote cache.Remote, done func(string, int, time.Time)) (*service, error) {
	store, err := openStore(dir, "store")
	if err != nil {
		return nil, err
	}
	if remote != nil {
		store.SetRemote(remote, cache.DefaultRemoteTimeout)
	}
	srv, err := server.New(server.Config{Store: store, Workers: workers, Sim: run})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &service{store: store, srv: srv, h: wrapHandler(srv.Handler(), tr, label, done), done: make(chan struct{})}
	s.hs = &http.Server{Handler: s.h}
	s.url = "http://" + ln.Addr().String()
	go func() {
		defer close(s.done)
		s.hs.Serve(ln)
	}()
	return s, nil
}

// stop closes the listener and every connection, waits for the serve
// loop, and shuts the scheduler down.
func (s *service) stop() error {
	s.hs.Close()
	<-s.done
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return s.srv.Shutdown(ctx)
}

// newClient returns a service client whose requests share one
// connection, so each closed-loop caller holds at most one.
func newClient(url string) (*client.Client, *http.Transport) {
	tp := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	c := client.New(url)
	c.HTTP = &http.Client{Transport: tp}
	return c, tp
}

// served is what the closed-loop callers measured.
type served struct {
	mu                                       sync.Mutex
	latency, submit, queue, run, stream, res []time.Duration
	cells, computed                          int
	fresh                                    map[string]sim.Config
	campaigns                                atomic.Int64
	// simBusy is the time the server's simulator spent on the cells it
	// computed (build, warmup and run phases of their job traces), over
	// simCells cells.
	simBusy  time.Duration
	simCells int
	// fixed is each caller's elapsed time and cells at the end of the
	// rounds a traced pass runs.
	fixed [2]struct {
		at    time.Duration
		cells int
	}
}

// runServed measures an in-process svard-served under two closed-loop
// client callers. The server computes as the daemon does (Config.Sim
// nil, so cells run through the recorded simulator), and the simulator
// time comes from the program's own per-cell phases in the job traces
// of the campaigns that computed cells.
func runServed(b *bench) error {
	var (
		setups []float64
		svc    *service
		pool   campaign.Spec
	)
	// Set-up is repeated, each time on a fresh store, listener and module,
	// to time it steadily; the last service is the one measured.
	for rep := 0; rep < b.sz.setupReps; rep++ {
		if svc != nil {
			if err := svc.stop(); err != nil {
				return err
			}
		}
		t0 := time.Now()
		var err error
		svc, err = startService(fmt.Sprintf("%s/setup%d", b.dir, rep), b.tr, "served", workers(), nil, nil, nil)
		if err != nil {
			return err
		}
		pool = servedPool(b.seed, rep, b.sz)
		cl, tp := newClient(svc.url)
		info, err := cl.Submit(context.Background(), pool, "pool", 0)
		if err == nil {
			info, err = cl.Wait(context.Background(), info.ID, nil)
		}
		tp.CloseIdleConnections()
		if err != nil {
			svc.stop()
			return fmt.Errorf("pool fill: %w", err)
		}
		if info.State != server.StateDone {
			svc.stop()
			return fmt.Errorf("pool fill: job %s", info.State)
		}
		setups = append(setups, since(t0))
	}
	defer svc.stop()

	settle()
	st0 := svc.store.Stats()
	req0 := svc.h.total()
	m := &served{fresh: map[string]sim.Config{}}
	fixedRounds := (b.sz.servedMinCampaigns + 2*b.sz.servedRound - 1) / (2 * b.sz.servedRound)
	rounds := 0
	if b.tr != nil {
		rounds = fixedRounds
	}
	if err := b.timedStart(); err != nil {
		return err
	}
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for c := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[c] = b.servedCaller(svc, pool, c, rounds, fixedRounds, start, m)
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	b.timedStop()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	st1 := svc.store.Stats()
	requests := svc.h.total("GET /api/v1/jobs/{id}/trace") - req0

	campaigns := int(m.campaigns.Load())
	b.check(m.computed == len(m.fresh), "served: %d cells computed across %d campaigns, the generator counted %d distinct new cells",
		m.computed, campaigns, len(m.fresh))
	if err := b.checkHTTPSamples(svc.url, pool, m.fresh); err != nil {
		return err
	}

	b.cells = m.cells
	b.fixedRate = float64(m.fixed[0].cells+m.fixed[1].cells) / max(m.fixed[0].at, m.fixed[1].at).Seconds()
	instr := float64(m.simCells) * float64(uint64(pool.Base.Cores)*(pool.Base.InstrPerCore+pool.Base.WarmupPerCore))
	b.e2e["setup_s"] = median(setups)
	b.e2e["cells_per_s"] = float64(m.cells) / wall.Seconds()
	b.e2e["sim_minstr_per_s"] = ratio(instr/1e6, m.simBusy.Seconds())
	b.e2e["campaign_p50_ms"] = median(msOf(m.latency))
	if b.tr != nil {
		b.setCacheLayers(storeTotals{st1.Hits() - st0.Hits(), st1.Misses - st0.Misses, st1.Writes - st0.Writes})
		b.setLayer("server.submit_ms_p50", median(msOf(m.submit)))
		b.setLayer("server.queue_ms_p50", median(msOf(m.queue)))
		b.setLayer("server.job_run_ms_p50", median(msOf(m.run)))
		b.setLayer("server.stream_ms_p50", median(msOf(m.stream)))
		b.setLayer("server.result_ms_p50", median(msOf(m.res)))
		p95, ok := tailPercentile(msOf(m.latency), 0.95, 10)
		b.setLayer("server.campaign_p95_ms", p95)
		if !ok {
			b.absent["server.campaign_p95_ms"] = fmt.Sprintf("%d campaigns leave fewer than 10 beyond p95", campaigns)
		}
		b.setLayer("server.http_requests_per_campaign", ratio(float64(requests), float64(campaigns)))
		b.setLayer("exec.worker_busy_frac", m.simBusy.Seconds()/(wall.Seconds()*float64(workers())))
		b.setLayer("profile.calibrate_ms_per_module", 0)
		b.absent["profile.calibrate_ms_per_module"] = "the module is calibrated while set-up fills the pool"
		b.notExercised("no fabric on this workload", fabricLayers...)
	}
	return nil
}

// servedCaller is one closed-loop caller: it submits its stream's next
// campaign only once the previous one is terminal and its result read,
// and downloads the job trace of each campaign that computed new cells
// (of every campaign, traced). It runs whole rounds until the pass has
// measured long enough and run enough campaigns (untraced), or a fixed
// number of rounds (traced); it notes when it finished the first
// fixedRounds.
func (b *bench) servedCaller(svc *service, pool campaign.Spec, id, rounds, fixedRounds int, start time.Time, m *served) error {
	cl, tp := newClient(svc.url)
	defer tp.CloseIdleConnections()
	ctx := context.Background()
	for round := 0; ; round++ {
		if round == fixedRounds {
			m.mu.Lock()
			m.fixed[id].at = time.Since(start)
			m.mu.Unlock()
		}
		if rounds > 0 {
			if round >= rounds {
				return nil
			}
		} else if round >= fixedRounds && time.Since(start) >= b.seconds && int(m.campaigns.Load()) >= b.sz.servedMinCampaigns {
			return nil
		}
		for j := 0; j < b.sz.servedRound; j++ {
			k := round*b.sz.servedRound + j
			spec, fresh := servedCampaign(pool, b.seed, id, k, b.sz.servedRound)
			t0 := time.Now()
			info, err := cl.Submit(ctx, spec, "", 0)
			t1 := time.Now()
			b.tr.span("client.Submit", "client", t0, nil)
			if err != nil {
				return fmt.Errorf("submit %s: %w", spec.Name, err)
			}
			final, err := cl.Wait(ctx, info.ID, nil)
			t2 := time.Now()
			b.tr.span("client.Wait", "client", t1, nil)
			if err != nil {
				return fmt.Errorf("wait %s: %w", spec.Name, err)
			}
			res, err := cl.Result(ctx, info.ID)
			t3 := time.Now()
			b.tr.span("client.Result", "client", t2, nil)
			b.tr.span("campaign "+spec.Name, "campaign", t0, nil)
			if err != nil {
				return fmt.Errorf("result %s: %w", spec.Name, err)
			}
			b.check(final.State == server.StateDone && res.Computed+res.Served+res.Resumed == res.Total,
				"%s: job %s, computed %d + served %d + resumed %d of %d", spec.Name, final.State, res.Computed, res.Served, res.Resumed, res.Total)
			var busy time.Duration
			computed := 0
			if b.tr != nil || len(fresh) > 0 {
				if busy, computed, err = b.jobTrace(cl, svc.url, final); err != nil {
					return err
				}
			}
			m.mu.Lock()
			m.simBusy += busy
			m.simCells += computed
			m.latency = append(m.latency, t2.Sub(t0))
			m.submit = append(m.submit, t1.Sub(t0))
			m.res = append(m.res, t3.Sub(t2))
			if final.StartedAt != nil && final.FinishedAt != nil {
				m.queue = append(m.queue, final.StartedAt.Sub(final.SubmittedAt))
				m.run = append(m.run, final.FinishedAt.Sub(*final.StartedAt))
				m.stream = append(m.stream, t2.Sub(*final.FinishedAt))
			}
			m.cells += res.Total
			m.computed += res.Computed
			if round < fixedRounds {
				m.fixed[id].cells += res.Total
			}
			for _, cfg := range fresh {
				m.fresh[cache.Key(cfg)] = cfg
			}
			m.mu.Unlock()
			m.campaigns.Add(1)
		}
	}
}

// jobTrace fetches a finished job's per-cell trace from the service,
// folds it into the tracer, and returns the simulator time (build,
// warmup and run phases) of the cells the job computed, and how many.
func (b *bench) jobTrace(cl *client.Client, url string, job server.JobInfo) (busy time.Duration, computed int, err error) {
	resp, err := cl.HTTP.Get(url + "/api/v1/jobs/" + job.ID + "/trace")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, 0, fmt.Errorf("job trace %s: %s", job.ID, resp.Status)
	}
	f, err := obs.Read(bytes.NewReader(raw))
	if err != nil {
		return 0, 0, fmt.Errorf("job trace %s: %w", job.ID, err)
	}
	for _, cs := range f.CellSummaries() {
		if cs.Outcome != "computed" {
			continue
		}
		computed++
		us := cs.Phases["build"] + cs.Phases["warmup"] + cs.Phases["run"]
		busy += time.Duration(us * float64(time.Microsecond))
	}
	return busy, computed, b.tr.foldJSON(raw, job.SubmittedAt)
}

// checkHTTPSamples fetches a seeded sample of cells over HTTP, new and
// pool cells alike, and checks each bit-identical to a direct sim.Run.
func (b *bench) checkHTTPSamples(url string, pool campaign.Spec, fresh map[string]sim.Config) error {
	keys := make([]string, 0, len(fresh))
	for k := range fresh {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var cands []sim.Config
	for _, k := range keys {
		cands = append(cands, fresh[k])
	}
	jobs, err := pool.Jobs()
	if err != nil {
		return err
	}
	for _, j := range jobs {
		cands = append(cands, j.Config)
	}
	cl, tp := newClient(url)
	defer tp.CloseIdleConnections()
	r := seeded(b.seed, 5)
	for i := 0; i < b.sz.httpSamples; i++ {
		// The first sample is a cell computed in the measured region.
		n := len(cands)
		if i == 0 && len(keys) > 0 {
			n = len(keys)
		}
		cfg := cands[r.Intn(n)]
		got, err := cl.Cell(context.Background(), cache.Key(cfg))
		want, rerr := sim.Run(cfg)
		if rerr != nil {
			return rerr
		}
		b.check(err == nil && sameResult(got, want), "cell %s over HTTP differs from a direct sim.Run (err %v)", campaign.CellLabel(cfg), err)
	}
	return nil
}
