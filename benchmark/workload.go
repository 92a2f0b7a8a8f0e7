package main

// workload.go defines the four workloads and runs one round of one:
// set-up, the timed sweep phase, and the output checks. Each round drives
// the library the way the commands do — the local workloads as
// `cmd/sweep -store` (plus `-netstore` for the topology tier), the fleet
// workload as `cmd/sweepd` with a coordinator and two workers — in a
// fresh directory with fresh stores and caches.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/graphio"
	"repro/internal/hgraph"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/sweepd"
)

// slots is the number of jobs that run at once in every workload: two
// scheduler workers locally, two single-slot workers in the fleet.
const slots = 2

// workload is one benchmark input family. Workloads sharing a pair run
// identical jobs and must produce byte-identical aggregates.
type workload struct {
	name     string
	pair     string
	trials   int    // trials per grid cell, per round
	spot     int    // jobs of round 0 the output check re-runs independently (0: all)
	fleet    bool   // run through a sweepd coordinator and two workers
	netstore string // "" (none), "cold" (empty), "warm" (pre-filled in set-up)
}

var workloads = []workload{
	{name: "ref-local", pair: "ref", trials: 20},
	{name: "ref-fleet", pair: "ref", trials: 20, fleet: true},
	{name: "topo-cold", pair: "topo", trials: 64, spot: 4, netstore: "cold"},
	{name: "topo-warm", pair: "topo", trials: 64, spot: 4, netstore: "warm"},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// refMaxPhase caps the reference grid's phase schedule. The few runs in
// which an attack keeps some honest node from ever deciding otherwise
// run on to the default safety cap (4·log₂n+16 = 48–52 phases, up to
// 48k rounds, seconds each): at 40 trials they hold 47–76 % of a sweep's
// time and make it vary 2.5× from seed to seed. Capped at 20 phases they
// still run longest, but a sweep's cost no longer hinges on how many of
// them a seed draws. At seeds 1–3 the cap changed no decision: every
// honest node that decides does so by phase 9, and the same runs keep
// undecided nodes under either cap; only their round counts drop.
const refMaxPhase = 20

// topoN is the topology tier's network size. Two jobs' working sets at
// n = 16384 outgrow the caches a core has to itself, and rounds slowed by
// up to half whenever the host was busy. In alternating 26–30 s runs, the
// run medians of topo-warm's wall_s spread 34 % (range over median) at
// n = 16384 against 23 % at 4096, and 24 % at 4096 against 10 % at 2048,
// each size with the same number of nodes a round.
const topoN = 2048

// refAdversaries is cmd/sweep's default adversary list.
var refAdversaries = []string{"none", "inflate", "suppress", "oracle", "topology-liar", "chain-faker", "combo"}

// spec is the grid one round runs.
func (w workload) spec(seed uint64, trials int) sweep.Spec {
	if w.pair == "ref" {
		return sweep.Spec{
			Name: "ref", Sizes: []int{256, 512}, Deltas: []float64{0.75},
			Adversaries: refAdversaries, Algorithms: []string{"byzantine"},
			Trials: trials, Seed: seed, MaxPhase: refMaxPhase,
		}
	}
	return sweep.Spec{
		Name: "topo", Sizes: []int{topoN}, Deltas: []float64{0.75},
		Adversaries: []string{"none"}, Algorithms: []string{"basic"},
		Trials: trials, Seed: seed,
	}
}

// roundSeed is the grid seed of round r: round 0 runs the grid of the
// seed itself, later rounds draw fresh grids that no other seed's rounds
// reach.
func roundSeed(seed uint64, r int) uint64 { return seed + uint64(r)<<32 }

// roundResult is what one round measured and checked.
type roundResult struct {
	jobs, failed int
	setups       []time.Duration // each set-up: directories, spec expansion, stores, topology pre-fill, coordinator and workers up
	wall         time.Duration   // the sweep until its aggregates are rendered and its stores closed
	cpu          time.Duration   // user+sys over the sweep phase, whole process
	mem          uint64          // the most memory the runtime held during the sweep phase (heldBytes)
	digest       string          // SHA-256 of the rendered aggregates
	problems     []string        // failed output checks
	jobList      []sweep.Job
	outs         []sweep.Outcome

	// Traced rounds only.
	spans     []span
	table     []map[string]time.Duration
	off       map[string]time.Duration
	layers    map[string]float64
	slotError float64 // |Σ slot table − slots·wall| / (slots·wall)
}

// Set-up is timed several times per untraced round, each time from
// scratch in its own directory, while the repetitions stay cheap: most
// workloads set up in a millisecond or less, where one sample says
// little. The last set-up is the one the sweep runs on.
const (
	maxSetups   = 9
	setupBudget = 50 * time.Millisecond
)

// round runs one round of w on spec inside dir (created empty by the
// caller). traced attaches the seam instrumentation of trace.go.
func (w workload) round(ctx context.Context, spec sweep.Spec, dir string, traced bool) (roundResult, error) {
	var (
		res   roundResult
		sw    sweepRun
		reg   *obs.Registry
		tr    *tracer
		t0    time.Time
		spent time.Duration
	)
	for {
		if sw.teardown != nil {
			sw.teardown()
		}
		// Start each set-up from a collected heap, so earlier garbage is
		// not charged to it or to the sweep.
		runtime.GC()
		sub := filepath.Join(dir, fmt.Sprintf("setup-%d", len(res.setups)))
		if err := os.Mkdir(sub, 0o755); err != nil {
			return res, err
		}
		reg = obs.NewRegistry()
		t0 = time.Now()
		if traced {
			tr = newTracer(t0)
		}
		var err error
		if w.fleet {
			sw, err = w.setupFleet(ctx, spec, sub, reg, tr)
		} else {
			sw, err = w.setupLocal(ctx, spec, sub, reg, tr)
		}
		if err != nil {
			return res, err
		}
		d := time.Since(t0)
		res.setups = append(res.setups, d)
		spent += d
		if traced || len(res.setups) == maxSetups || spent >= setupBudget {
			break
		}
	}
	res.jobs, res.jobList = len(sw.jobs), sw.jobs

	base := startPhase()
	outs, md, runErr := sw.run()
	res.wall, res.cpu, res.mem = base.end()
	sweepFrom, sweepTo := base.start.Sub(t0), base.start.Sub(t0)+res.wall
	gc := base.gcDelta()
	sw.teardown()
	if runErr != nil {
		return res, runErr
	}

	sum := sha256.Sum256([]byte(md))
	res.digest = hex.EncodeToString(sum[:])
	res.outs = outs
	res.failed, res.problems = checkRound(sw, outs, md, reg)

	if tr != nil {
		res.spans = tr.build()
		table := slotTable(res.spans, slots, sweepFrom, sweepTo)
		res.table, res.off = table, offSlotTotals(res.spans, sweepFrom, sweepTo)
		var total time.Duration
		for _, row := range table {
			for _, d := range row {
				total += d
			}
		}
		want := slots * res.wall
		res.slotError = float64((total - want).Abs()) / float64(want)
		res.layers = layerMetrics(tr, res.spans, table, reg, sweepFrom, sweepTo, gc)
	}
	return res, nil
}

// sweepRun is a set-up round, ready to run its sweep phase.
type sweepRun struct {
	jobs      []sweep.Job
	storePath string
	run       func() ([]sweep.Outcome, string, error)
	teardown  func()
	// Fleet rounds: the coordinator's error count and the workers'
	// exit errors, read by the checks.
	fleetErrs func() []error
}

// openStore opens the round's result store (wrapped when traced) and its
// run-log beside it, as cmd/sweep -store and cmd/sweepd both do.
func openStore(dir string, tr *tracer) (*sweep.Store, *obs.RunLog, func(), error) {
	path := filepath.Join(dir, "results.jsonl")
	var hook func(sweep.File) sweep.File
	if tr != nil {
		hook = tr.storeHook
	}
	store, err := sweep.OpenStoreHooked(path, hook)
	if err != nil {
		return nil, nil, nil, err
	}
	f, err := os.OpenFile(path+".runlog", os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		store.Close()
		return nil, nil, nil, fmt.Errorf("open run-log: %w", err)
	}
	var sink io.Writer = f
	if tr != nil {
		sink = io.MultiWriter(f, tr.logWriter(-1))
	}
	runlog := obs.NewRunLog(sink)
	closeLog := func() {
		runlog.Close()
		f.Close()
	}
	return store, runlog, closeLog, nil
}

// setupLocal wires a round like cmd/sweep -store (and -netstore).
func (w workload) setupLocal(ctx context.Context, spec sweep.Spec, dir string, reg *obs.Registry, tr *tracer) (sweepRun, error) {
	jobs, err := spec.Jobs()
	if err != nil {
		return sweepRun{}, err
	}
	var ns *graphio.NetStore
	if w.netstore != "" {
		if ns, err = sweep.ResolveNetStore(filepath.Join(dir, "netstore")); err != nil {
			return sweepRun{}, err
		}
		if tr != nil {
			ns.SetSaveHook(tr.saveHook)
		}
		if w.netstore == "warm" {
			if err := pregen(ns, jobs, tr); err != nil {
				return sweepRun{}, err
			}
		}
	}
	cache := sweep.NewNetCacheWithStore(0, ns)
	cache.SetTelemetry(reg)
	store, runlog, closeLog, err := openStore(dir, tr)
	if err != nil {
		return sweepRun{}, err
	}
	mon := sweep.NewMonitor(spec.Name, len(jobs), cache, reg)
	opts := sweep.Options{
		Workers:   slots,
		Cache:     cache,
		Store:     store,
		RunLog:    runlog,
		Telemetry: reg,
		Progress: func(done, total int, out sweep.Outcome) {
			mon.Observe(done, total, out)
			if tr != nil {
				tr.outcome(out)
			}
		},
	}
	closeAll := sync.OnceValue(func() error {
		err := store.Close()
		closeLog()
		return err
	})
	return sweepRun{
		jobs:      jobs,
		storePath: store.Path(),
		run: func() ([]sweep.Outcome, string, error) {
			outs, err := sweep.RunContext(ctx, jobs, opts)
			md := sweep.Markdown("Sweep "+spec.Name, sweep.Aggregate(outs))
			if cerr := closeAll(); err == nil {
				err = cerr
			}
			return outs, md, err
		},
		teardown: func() { _ = closeAll() },
	}, nil
}

// pregen fills the topology store with the round's topologies the way
// `netgen -pregen` does: one generation per slot at a time, each saved
// through the store's atomic write path.
func pregen(ns *graphio.NetStore, jobs []sweep.Job, tr *tracer) error {
	seen := map[hgraph.Params]bool{}
	var todo []hgraph.Params
	for _, j := range jobs {
		p := j.Net.Canonical()
		if !seen[p] && !ns.Has(p) {
			seen[p] = true
			todo = append(todo, p)
		}
	}
	work := make(chan hgraph.Params)
	errs := make([]error, slots)
	var wg sync.WaitGroup
	for w := 0; w < slots; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pool := sim.NewPool(max(runtime.GOMAXPROCS(0)/slots, 1))
			defer pool.Close()
			for p := range work {
				if errs[w] != nil {
					continue
				}
				start := time.Now()
				net, err := hgraph.NewWith(p, pool)
				if err != nil {
					errs[w] = err
					continue
				}
				topo := core.NewTopology(net)
				if tr != nil {
					tr.pregenSpan(start, time.Now())
				}
				errs[w] = ns.Save(net, topo)
			}
		}(w)
	}
	for _, p := range todo {
		work <- p
	}
	close(work)
	wg.Wait()
	return errors.Join(errs...)
}

// setupFleet wires a round like cmd/sweepd: a coordinator with its
// store, run-log and journal, the default 8 shards and 15 s lease, served
// over loopback, and two single-slot workers. Each worker runs its jobs
// one at a time on one simulator worker, the same machine division
// ref-local's two scheduler workers get, so the two workloads run
// identical jobs identically and differ only by the fleet path.
func (w workload) setupFleet(ctx context.Context, spec sweep.Spec, dir string, reg *obs.Registry, tr *tracer) (sweepRun, error) {
	jobs, err := spec.Jobs()
	if err != nil {
		return sweepRun{}, err
	}
	store, runlog, closeLog, err := openStore(dir, tr)
	if err != nil {
		return sweepRun{}, err
	}
	journal, err := sweepd.OpenJournal(store.Path() + ".journal")
	if err != nil {
		store.Close()
		closeLog()
		return sweepRun{}, err
	}
	coord, err := sweepd.NewCoordinator(jobs, sweepd.Config{
		Name:      spec.Name,
		Store:     store,
		RunLog:    runlog,
		Journal:   journal,
		Telemetry: reg,
	})
	if err != nil {
		store.Close()
		closeLog()
		return sweepRun{}, err
	}
	handler := coord.Handler()
	if tr != nil {
		handler = tr.middleware(handler)
	}
	srv := httptest.NewServer(handler)

	workers := make([]*sweepd.Worker, slots)
	for slot := range workers {
		o := sweepd.WorkerOptions{
			Coordinator: srv.URL,
			Name:        fmt.Sprintf("w%d", slot),
			Opts:        sweep.Options{Workers: 1, RunWorkers: 1, Telemetry: reg},
		}
		if tr != nil {
			o.Client = &http.Client{Transport: tr.transport(slot, o.Name)}
			o.Opts.RunLog = obs.NewRunLog(tr.logWriter(slot))
			o.OnOutcome = tr.outcome
		}
		workers[slot] = sweepd.NewWorker(o)
	}

	wctx, cancel := context.WithCancel(ctx)
	werrs := make([]error, slots)
	var wg sync.WaitGroup
	closeAll := sync.OnceValue(func() error {
		err := store.Close()
		closeLog()
		return err
	})
	return sweepRun{
		jobs:      jobs,
		storePath: store.Path(),
		run: func() ([]sweep.Outcome, string, error) {
			for i, wk := range workers {
				wg.Add(1)
				go func(i int, wk *sweepd.Worker) {
					defer wg.Done()
					werrs[i] = wk.Run(wctx)
				}(i, wk)
			}
			select {
			case <-coord.Done():
			case <-ctx.Done():
				coord.Abort()
				return nil, "", ctx.Err()
			}
			outs := coord.Outcomes()
			md := sweep.Markdown("Sweep "+spec.Name, sweep.Aggregate(outs))
			return outs, md, closeAll()
		},
		teardown: func() {
			// The sweep is over once the coordinator is done; a worker
			// still waiting out a poll interval is told to stop.
			cancel()
			wg.Wait()
			srv.Close()
			_ = closeAll()
		},
		fleetErrs: func() []error {
			errs := []error{}
			if n := coord.Errors(); n > 0 {
				errs = append(errs, fmt.Errorf("coordinator accounted %d failed jobs", n))
			}
			for i, err := range werrs {
				if err != nil && !errors.Is(err, context.Canceled) {
					errs = append(errs, fmt.Errorf("worker w%d: %w", i, err))
				}
			}
			return errs
		},
	}, nil
}

// checkRound counts the round's failed jobs — an error outcome, or a key
// missing from the store as reopened from disk — and lists any failed
// check: the aggregates folded from the stored records must render as
// md did, and the fleet's accounting must show no reassigned shard and
// no rejected record.
func checkRound(sw sweepRun, outs []sweep.Outcome, md string, reg *obs.Registry) (int, []string) {
	var problems []string
	failed := 0
	store, err := sweep.OpenStore(sw.storePath)
	if err != nil {
		return len(sw.jobs), []string{fmt.Sprintf("reopen store: %v", err)}
	}
	defer store.Close()
	if len(outs) != len(sw.jobs) {
		problems = append(problems, fmt.Sprintf("%d outcomes for %d jobs", len(outs), len(sw.jobs)))
	}
	fromStore := make([]sweep.Outcome, len(sw.jobs))
	for i, j := range sw.jobs {
		rec, stored := store.Lookup(j.Key())
		if i >= len(outs) || outs[i].Err != nil || !stored {
			failed++
		}
		fromStore[i] = sweep.Outcome{Job: j, Summary: rec.Summary}
	}
	if len(sw.jobs) > 0 && sweep.Markdown("Sweep "+sw.jobs[0].Spec, sweep.Aggregate(fromStore)) != md {
		problems = append(problems, "aggregates folded from the stored records differ from the sweep's")
	}
	if failed > 0 {
		problems = append(problems, fmt.Sprintf("%d of %d jobs failed or are missing from the store", failed, len(sw.jobs)))
	}
	if store.Len() != len(sw.jobs) {
		problems = append(problems, fmt.Sprintf("store holds %d keys, want %d", store.Len(), len(sw.jobs)))
	}
	if sw.fleetErrs != nil {
		for _, err := range sw.fleetErrs() {
			problems = append(problems, err.Error())
		}
		for _, name := range []string{"sweepd.shards.reassigned", "sweepd.records.rejected"} {
			if n := reg.Counter(name).Load(); n != 0 {
				problems = append(problems, fmt.Sprintf("%s = %d, want 0", name, n))
			}
		}
	}
	return failed, problems
}

// sweepPhase brackets the timed part of a round.
type sweepPhase struct {
	start    time.Time
	cpuStart time.Duration
	gcStart  gcStats
	gcEnd    gcStats
	stopMem  func() uint64
}

func startPhase() sweepPhase {
	return sweepPhase{start: time.Now(), cpuStart: cpuTime(), gcStart: readGC(), stopMem: sampleMem()}
}

// end closes the phase: its wall and CPU time, and the most memory the
// runtime held during it.
func (p *sweepPhase) end() (wall, cpu time.Duration, mem uint64) {
	wall = time.Since(p.start)
	cpu = cpuTime() - p.cpuStart
	mem = p.stopMem()
	p.gcEnd = readGC()
	return wall, cpu, mem
}

func (p *sweepPhase) gcDelta() gcStats {
	return gcStats{
		cycles: p.gcEnd.cycles - p.gcStart.cycles,
		alloc:  p.gcEnd.alloc - p.gcStart.alloc,
		pause:  p.gcEnd.pause - p.gcStart.pause,
	}
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// memSampleEvery is how often the sweep phase's memory is sampled.
const memSampleEvery = 5 * time.Millisecond

// sampleMem samples heldBytes every memSampleEvery until the returned
// stop is called, which waits for the sampler to end and returns the
// highest sample.
//
// The process's lifetime peak (ru_maxrss) is no substitute: it is the
// maximum over every round, decided by whether some round's garbage
// collection ran late enough to set a new peak, and it jumps by up to a
// quarter from run to run. A per-round peak reduces to a median like the
// times.
func sampleMem() (stop func() uint64) {
	done := make(chan struct{})
	peak := make(chan uint64)
	go func() {
		t := time.NewTicker(memSampleEvery)
		defer t.Stop()
		hi := heldBytes()
		for {
			select {
			case <-t.C:
				hi = max(hi, heldBytes())
			case <-done:
				peak <- max(hi, heldBytes())
				return
			}
		}
	}()
	return func() uint64 {
		close(done)
		return <-peak
	}
}

// heldBytes is the memory the Go runtime holds from the OS: all it has
// mapped read-write, less the heap pages it has returned. It leaves out
// the binary's own pages, which no round changes.
func heldBytes() uint64 {
	s := []metrics.Sample{
		{Name: "/memory/classes/total:bytes"},
		{Name: "/memory/classes/heap/released:bytes"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 || s[1].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64() - s[1].Value.Uint64()
}
