package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/hgraph"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/rng"
)

// Options configures a sweep execution.
type Options struct {
	// Workers is the number of jobs executed concurrently (<= 0 selects
	// GOMAXPROCS). Job-level parallelism is where the throughput is: one
	// protocol run has limited internal parallelism, a grid has plenty.
	Workers int
	// RunWorkers is the sim.Pool size inside each protocol run (<= 0
	// divides GOMAXPROCS across Workers, so a saturated scheduler runs
	// each job serially instead of oversubscribing the machine with
	// Workers × GOMAXPROCS pool goroutines).
	RunWorkers int
	// Band is the acceptance band for summaries (zero: metrics.DefaultBand).
	Band metrics.Band
	// Cache reuses generated networks across jobs (nil: a fresh cache of
	// DefaultCacheCap networks for this run alone). A caller that runs
	// several job lists, as a sweepd worker runs shards, passes one cache
	// to all of them so a topology they share is built once.
	Cache *NetCache
	// Store, when non-nil, persists each completed job and — the resume
	// path — skips any job whose content key the store already holds.
	Store *Store
	// KeepResults retains each job's full core.Result, its network, and
	// its Byzantine vector on the Outcome, for callers (the experiment
	// suite) that need more than the Summary. Off for large grids: a
	// Result holds O(n) state per job.
	KeepResults bool
	// Observer, when non-nil, supplies a per-job observer; the instance
	// is returned on the Outcome so callers can read what it saw.
	Observer func(Job) core.Observer
	// Progress, when non-nil, is called serially after each job completes
	// (or is satisfied from the store).
	Progress func(done, total int, out Outcome)
	// Telemetry selects the obs registry engine counters and stage
	// timers accumulate into (nil: obs.Default). Strictly observational:
	// nothing recorded here feeds Job keys, digests, or stored Records.
	Telemetry *obs.Registry
	// RunLog, when non-nil, receives one JSONL lifecycle event per
	// scheduler step (sweep start/end, job start/finish, resume skips).
	// Logging is best effort — a failing run-log never fails a job.
	RunLog *obs.RunLog
	// Drop, when non-nil, is consulted immediately before a pending job
	// would execute; returning true abandons the job without running
	// it. The outcome is marked Dropped (no Summary, no store write, no
	// error — the job simply ceased to be this scheduler's problem) and
	// Progress still fires so callers see the slot accounted. sweepd
	// workers use it to shed jobs the coordinator stole from their
	// shard mid-run; a nil Drop leaves the scheduler byte-identical to
	// its pre-Drop behavior.
	Drop func(Job) bool
}

// StageTimes partitions one job's wall-clock time across the runner's
// stages, as observed by the job's worker. CacheLookup is the full
// GetInfo call — including time blocked on another worker's
// in-flight load — while Generate and DiskLoad are attributed only to
// the job that performed the work (TierInfo.Creator), so summed stage
// totals never double count a shared generation. Generate covers H, K
// and the IDs: a network's S is counted by the first Algorithm 2 run on
// it (core's topology exchange), so that run's Run includes the count,
// and a concurrent run on the same network counts its wait for it in
// Run too. Purely observational; absent from stored Records, so existing
// JSONL stores and job keys are byte-identical with telemetry enabled.
type StageTimes struct {
	CacheLookup time.Duration `json:"cache_lookup,omitempty"`
	Generate    time.Duration `json:"generate,omitempty"`
	DiskLoad    time.Duration `json:"disk_load,omitempty"`
	Run         time.Duration `json:"run,omitempty"`
	Aggregate   time.Duration `json:"aggregate,omitempty"`
}

// add folds o into the receiver (the Monitor's accumulation step).
func (s *StageTimes) add(o StageTimes) {
	s.CacheLookup += o.CacheLookup
	s.Generate += o.Generate
	s.DiskLoad += o.DiskLoad
	s.Run += o.Run
	s.Aggregate += o.Aggregate
}

// Outcome is one job's result, in expansion order.
type Outcome struct {
	Job     Job
	Summary metrics.Summary
	// FromStore marks jobs satisfied by the result store without running.
	FromStore bool
	// Dropped marks jobs abandoned unrun by Options.Drop (a sweepd
	// worker shedding stolen work). No Summary, no Err.
	Dropped bool
	Err     error

	// Stages partitions the job's wall time (zero for store hits), and
	// CacheTier records how its topology was obtained — TierMem, TierDisk,
	// or TierGen ("" for store hits and lookup errors). Worker is the
	// scheduler worker that ran the job (-1 for store hits). All three
	// are observational extras for the run-log, /status, and the
	// end-of-sweep breakdown.
	Stages    StageTimes
	CacheTier string
	Worker    int

	// Populated only when Options.KeepResults is set and the job actually
	// ran (store hits carry only the Summary):
	Result   *core.Result
	Net      *hgraph.Network
	Byz      []bool
	Observer core.Observer
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.RunWorkers <= 0 {
		o.RunWorkers = runtime.GOMAXPROCS(0) / o.Workers
		if o.RunWorkers < 1 {
			o.RunWorkers = 1
		}
	}
	if o.Band == (metrics.Band{}) {
		o.Band = metrics.DefaultBand
	}
	if o.Telemetry == nil {
		o.Telemetry = obs.Default
	}
	if o.Cache == nil {
		o.Cache = NewNetCache(0)
		// A cache this Run created reports where this Run reports; a
		// caller-supplied cache keeps whatever binding its owner chose.
		o.Cache.SetTelemetry(o.Telemetry)
	}
	return o
}

// Run executes jobs across a bounded worker set and returns one Outcome
// per job, in job order regardless of completion order. Jobs found in the
// store are skipped; everything else runs, is summarized under
// opts.Band, and (with a store) is persisted as it completes. The first
// job error, in job order, is returned alongside the full outcome slice.
func Run(jobs []Job, opts Options) ([]Outcome, error) {
	return RunContext(context.Background(), jobs, opts)
}

// RunContext is Run with cancellation: when ctx is canceled mid-sweep,
// no new jobs are dispatched, in-flight jobs drain to completion
// (their results are persisted as usual), every job that never started is
// marked with ctx's error, and the run-log's sweep_end carries
// "aborted": true. The returned error wraps ctx.Err() — callers detect
// an abort with errors.Is(err, context.Canceled) — so an interrupted
// sweep still hands back every Outcome it produced, and a later run with
// the same store resumes exactly past the drained jobs.
func RunContext(ctx context.Context, jobs []Job, opts Options) ([]Outcome, error) {
	opts = opts.withDefaults()
	outs := make([]Outcome, len(jobs))
	sweepStart := time.Now()

	// Resolve store hits up front so the worker loop only sees real work.
	// Skip events are buffered and emitted after sweep_start: run-log
	// readers see the sweep open before any of its per-job lifecycle
	// lines, no matter how many jobs the store resolves.
	var pending []int
	var skipped []int
	for i, j := range jobs {
		if opts.Store != nil {
			if rec, ok := opts.Store.Lookup(j.Key()); ok {
				outs[i] = Outcome{Job: j, Summary: rec.Summary, FromStore: true, Worker: -1}
				skipped = append(skipped, i)
				continue
			}
		}
		pending = append(pending, i)
	}
	_ = opts.RunLog.Event("sweep_start", map[string]any{
		"jobs": len(jobs), "pending": len(pending),
		"resumed": len(jobs) - len(pending), "workers": opts.Workers,
	})
	for _, i := range skipped {
		_ = opts.RunLog.Event("job_skip", map[string]any{
			"key": jobs[i].Key(), "label": jobs[i].Label(),
		})
	}

	var (
		progressMu sync.Mutex
		done       int
	)
	report := func(i int) {
		if opts.Progress == nil {
			return
		}
		progressMu.Lock()
		done++
		opts.Progress(done, len(jobs), outs[i])
		progressMu.Unlock()
	}
	// Store hits count toward progress before execution starts.
	for i := range jobs {
		if outs[i].FromStore {
			report(i)
		}
	}

	// Resolve the registry's engine counters and stage timers once: the
	// per-job accounting below is then pure atomics, no name lookups.
	tele := newRunTelemetry(opts.Telemetry)

	// executed marks jobs a worker actually ran (a dropped job is marked
	// Dropped on its outcome instead); each index is written by exactly
	// one worker before wg.Wait, so the post-drain scan below is
	// race-free.
	executed := make([]bool, len(jobs))

	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			// One simulation arena per worker, reused across jobs: the
			// engine's per-run state and sim.Pool are rewound by Reset
			// instead of reallocated.
			arena := core.NewWorld()
			defer arena.Close()
			for i := range work {
				// Shed dropped jobs at dispatch, not up front: a Drop
				// verdict (a steal notification) can arrive while the job
				// waits for a worker.
				if opts.Drop != nil && opts.Drop(jobs[i]) {
					outs[i] = Outcome{Job: jobs[i], Dropped: true, Worker: -1}
					_ = opts.RunLog.Event("job_drop", map[string]any{
						"key": jobs[i].Key(), "label": jobs[i].Label(),
					})
					report(i)
					continue
				}
				executed[i] = true
				_ = opts.RunLog.Event("job_start", map[string]any{
					"key": jobs[i].Key(), "label": jobs[i].Label(), "worker": worker,
				})
				start := time.Now()
				outs[i] = execute(jobs[i], opts, arena, tele)
				outs[i].Worker = worker
				fields := map[string]any{
					"key": jobs[i].Key(), "label": jobs[i].Label(), "worker": worker,
					"ms":     float64(time.Since(start).Microseconds()) / 1000,
					"tier":   outs[i].CacheTier,
					"stages": outs[i].Stages,
				}
				if outs[i].Err != nil {
					fields["err"] = outs[i].Err.Error()
				}
				_ = opts.RunLog.Event("job_done", fields)
				report(i)
			}
		}(w)
	}
	// Feed jobs until the list is exhausted or the context is canceled:
	// cancellation stops dispatch, in-flight jobs drain (their results
	// land in the store as usual), and the remainder is marked below.
feed:
	for _, i := range pending {
		select {
		case work <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(work)
	wg.Wait()

	// ran and errs count only jobs that actually ran: dropped jobs were
	// shed unrun, and abandoned jobs are accounted separately so an abort
	// doesn't read as a pile of errors.
	aborted := ctx.Err() != nil
	ran, dropped, errs := 0, 0, 0
	for _, i := range pending {
		switch {
		case executed[i]:
			ran++
			if outs[i].Err != nil {
				errs++
			}
		case outs[i].Dropped:
			dropped++
		case aborted:
			outs[i] = Outcome{Job: jobs[i], Err: ctx.Err(), Worker: -1}
		}
	}
	end := map[string]any{
		"ran": ran, "resumed": len(jobs) - len(pending), "errors": errs,
		"elapsed_ms": float64(time.Since(sweepStart).Microseconds()) / 1000,
	}
	if dropped > 0 {
		end["dropped"] = dropped
	}
	if aborted {
		end["aborted"] = true
		end["abandoned"] = len(pending) - ran - dropped
	}
	_ = opts.RunLog.Event("sweep_end", end)
	if aborted {
		return outs, fmt.Errorf("sweep: aborted after %d of %d pending jobs: %w",
			ran, len(pending), ctx.Err())
	}
	for i := range outs {
		if outs[i].Err != nil {
			return outs, fmt.Errorf("sweep: job %d (%s): %w", i, jobs[i].Label(), outs[i].Err)
		}
	}
	return outs, nil
}

// runTelemetry is the registry bindings one Run resolves up front.
// Engine counters fold each completed run's core.Result aggregate in —
// the round loop itself is untouched, which is how telemetry stays
// on while TestRoundLoopZeroAlloc and the golden digests hold.
type runTelemetry struct {
	runs     *obs.Counter // "core.runs"
	rounds   *obs.Counter // "core.rounds"
	messages *obs.Counter // "core.messages"
	bits     *obs.Counter // "core.bits"
	dropped  *obs.Counter // "core.dropped_messages"
	rejoins  *obs.Counter // "core.rejoins"

	stageLookup *obs.Timer // "sweep.stage.cache_lookup"
	stageGen    *obs.Timer // "sweep.stage.generate"
	stageDisk   *obs.Timer // "sweep.stage.disk_load"
	stageRun    *obs.Timer // "sweep.stage.run"
	stageAgg    *obs.Timer // "sweep.stage.aggregate"
}

func newRunTelemetry(reg *obs.Registry) runTelemetry {
	if reg == nil {
		reg = obs.Default
	}
	return runTelemetry{
		runs:     reg.Counter("core.runs"),
		rounds:   reg.Counter("core.rounds"),
		messages: reg.Counter("core.messages"),
		bits:     reg.Counter("core.bits"),
		dropped:  reg.Counter("core.dropped_messages"),
		rejoins:  reg.Counter("core.rejoins"),

		stageLookup: reg.Timer("sweep.stage.cache_lookup"),
		stageGen:    reg.Timer("sweep.stage.generate"),
		stageDisk:   reg.Timer("sweep.stage.disk_load"),
		stageRun:    reg.Timer("sweep.stage.run"),
		stageAgg:    reg.Timer("sweep.stage.aggregate"),
	}
}

// execute runs one job to completion on the worker's arena.
func execute(j Job, opts Options, arena *core.World, tele runTelemetry) Outcome {
	out := Outcome{Job: j}
	start := time.Now()

	net, info, err := opts.Cache.GetInfo(j.Net)
	out.Stages.CacheLookup = time.Since(start)
	tele.stageLookup.Observe(out.Stages.CacheLookup)
	if err != nil {
		out.Err = err
		return out
	}
	out.CacheTier = info.Tier
	if info.Creator {
		out.Stages.Generate = info.Generate
		out.Stages.DiskLoad = info.DiskLoad
		if info.Generate > 0 {
			tele.stageGen.Observe(info.Generate)
		}
		if info.DiskLoad > 0 {
			tele.stageDisk.Observe(info.DiskLoad)
		}
	}
	var byz []bool
	if j.ByzCount > 0 {
		pl, ok := hgraph.PlacementByName(j.Placement)
		if !ok {
			out.Err = fmt.Errorf("unknown placement %q", j.Placement)
			return out
		}
		byz = pl.Place(net.H, j.ByzCount, rng.New(j.PlaceSeed))
	}
	adv, ok := adversary.ByName(j.Adversary)
	if !ok {
		out.Err = fmt.Errorf("unknown adversary %q", j.Adversary)
		return out
	}
	cfg := j.Config(opts.RunWorkers)
	var obs core.Observer
	if opts.Observer != nil {
		obs = opts.Observer(j)
		cfg.Observer = obs
	}
	runStart := time.Now()
	res, err := arena.Run(net, byz, adv, cfg)
	out.Stages.Run = time.Since(runStart)
	tele.stageRun.Observe(out.Stages.Run)
	if err != nil {
		out.Err = err
		return out
	}
	// Fold the run's communication-cost aggregate into the registry. The
	// engine already accounted it (core.Counters via sim.Counters); this
	// is a per-job handful of atomic adds, never a round-loop cost.
	tele.runs.Inc()
	tele.rounds.Add(res.Rounds)
	tele.messages.Add(res.Messages)
	tele.bits.Add(res.Bits)
	tele.dropped.Add(res.DroppedMessages)
	tele.rejoins.Add(int64(res.Rejoins))

	aggStart := time.Now()
	out.Summary = metrics.Summarize(res, opts.Band)
	if opts.KeepResults {
		out.Result = res
		out.Net = net
		out.Byz = byz
		out.Observer = obs
	}
	if opts.Store != nil {
		rec := Record{
			Key:       j.Key(),
			Job:       j,
			Summary:   out.Summary,
			ElapsedMS: float64(time.Since(start).Microseconds()) / 1000,
		}
		if err := opts.Store.Put(rec); err != nil {
			out.Err = err
		}
	}
	out.Stages.Aggregate = time.Since(aggStart)
	tele.stageAgg.Observe(out.Stages.Aggregate)
	return out
}
