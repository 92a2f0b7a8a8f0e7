// Command sweepd runs a scenario grid across machines: a coordinator
// expands the grid once, partitions pending jobs into content-key-range
// shards, and serves them over HTTP with lease-based assignment; worker
// processes (the same binary with -worker) claim shards, run them
// through the ordinary sweep scheduler, stream records back, and
// heartbeat. A worker that dies mid-shard simply stops heartbeating —
// its lease expires, the shard reassigns, and the replacement worker
// recomputes only the jobs the dead worker never reported. Aggregates
// fold in expansion order from the one merged store, so the output is
// byte-identical to a single-process `sweep` run of the same grid, for
// any shard count, worker count, or number of mid-sweep deaths.
//
// Usage:
//
//	sweepd -n 1024 -delta 0.75 -adv none,inflate -trials 8 \
//	       -store merged.jsonl -shards 8 -http :9900        # coordinator
//	sweepd -worker http://host:9900 -name w1                # worker (×N)
//	sweepd -spec grid.json -store merged.jsonl -http :9900  # spec file
//
// The coordinator resolves store hits before serving anything, so
// re-running with the same -store resumes the fleet where it stopped.
// /status on the coordinator's address serves the familiar sweep
// Monitor document plus shard and worker-liveness tallies; -telemetry
// writes that document as JSON on exit.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/sweep"
	"repro/internal/sweepd"
)

func main() {
	os.Exit(run())
}

func run() int {
	// Coordinator mode: the grid (cmd/sweep's flags).
	gridSpec := sweep.GridFlags(flag.CommandLine)
	var (
		// Worker mode.
		workerURL  = flag.String("worker", "", "run as a worker against this coordinator URL")
		name       = flag.String("name", "", "worker name for leases and /status (default host.pid)")
		workers    = flag.Int("workers", 0, "concurrent jobs per worker (0 = GOMAXPROCS)")
		runWorkers = flag.Int("run-workers", 0, "sim workers per job (0 = auto)")
		cacheCap   = flag.Int("cache", 0, "network cache capacity (0 = default)")
		netstore   = flag.String("netstore", "", "topology store: dir, \"on\", or \"off\" (default: $REPRO_NETSTORE)")
		retries    = flag.Int("retries", 0, "transient coordinator-call retries per request (0 = default)")
		backoff    = flag.Duration("backoff", 0, "first retry delay, doubled per attempt (0 = default)")
		maxOffline = flag.Duration("max-offline", 0, "drain and exit after the coordinator is unreachable this long (0 = 90s, negative = wait forever)")
		chaosDelay = flag.Duration("chaos-delay", 0, "inject a random delay up to this duration before every coordinator call (straggler simulation; 0 = off)")

		// Coordinator mode: the service.
		storePath  = flag.String("store", "", "merged JSONL result store (required; enables resume)")
		journal    = flag.String("journal", "", "coordinator crash-recovery journal (default: <store>.journal; \"off\" disables epoch fencing)")
		shards     = flag.Int("shards", 0, "content-key-range shard count (0 = default)")
		lease      = flag.Duration("lease", 0, "lease TTL before a silent worker's shard reassigns (0 = default)")
		stealAfter = flag.Duration("steal-after", 0, "how long a shard may stall before idle workers split it (0 = half the lease TTL)")
		httpAddr   = flag.String("http", ":9900", "coordinator listen address")
		runlogPath = flag.String("runlog", "", "JSONL run-log path (default: <store>.runlog; \"off\" disables)")
		telePath   = flag.String("telemetry", "", "write the final coordinator status (JSON) to this file")
		format     = flag.String("format", "md", "aggregate output format: md | csv")
		outPath    = flag.String("o", "", "write aggregates to this file (default: stdout)")
		quiet      = flag.Bool("q", false, "suppress progress output")
	)
	flag.Parse()

	// Either mode drains cleanly on SIGINT/SIGTERM: a worker abandons
	// its shard (the lease reassigns), a coordinator writes sweep_end
	// with aborted:true and leaves a resumable store. A second signal
	// kills immediately.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	go func() {
		<-ctx.Done()
		stopSignals()
	}()

	if *workerURL != "" {
		return runWorker(ctx, workerConfig{
			url: *workerURL, name: *name, workers: *workers, runWorkers: *runWorkers,
			cacheCap: *cacheCap, netstore: *netstore,
			retries: *retries, backoff: *backoff, maxOffline: *maxOffline,
			chaosDelay: *chaosDelay,
		})
	}
	return runCoordinator(ctx, coordinatorConfig{
		gridSpec:  gridSpec,
		storePath: *storePath, journalPath: *journal,
		shards: *shards, lease: *lease, stealAfter: *stealAfter,
		httpAddr: *httpAddr, runlogPath: *runlogPath, telePath: *telePath,
		format: *format, outPath: *outPath, quiet: *quiet,
	})
}

type workerConfig struct {
	url, name           string
	workers, runWorkers int
	cacheCap            int
	netstore            string
	retries             int
	backoff, maxOffline time.Duration
	chaosDelay          time.Duration
}

func runWorker(ctx context.Context, cfg workerConfig) int {
	opts := sweep.Options{Workers: cfg.workers, RunWorkers: cfg.runWorkers}
	if cfg.netstore != "" {
		ns, err := sweep.ResolveNetStore(cfg.netstore)
		if err != nil {
			return fail(err)
		}
		opts.Cache = sweep.NewNetCacheWithStore(cfg.cacheCap, ns)
	} else if cfg.cacheCap != 0 {
		opts.Cache = sweep.NewNetCache(cfg.cacheCap)
	}
	var hc *http.Client
	if cfg.chaosDelay > 0 {
		// A degraded machine, on demand: every coordinator call waits a
		// seeded-random slice of -chaos-delay first, so this worker
		// claims, reports, and heartbeats like a straggler. CI's steal
		// smoke leg uses it to force a shard split deterministically.
		hc = &http.Client{Transport: &chaos.Transport{
			Plan: chaos.NetPlan{Seed: 1, Delay: 1, MaxDelay: cfg.chaosDelay},
		}}
		fmt.Fprintf(os.Stderr, "chaos: delaying every coordinator call by up to %s\n", cfg.chaosDelay)
	}
	w := sweepd.NewWorker(sweepd.WorkerOptions{
		Coordinator: cfg.url,
		Name:        cfg.name,
		Opts:        opts,
		Client:      hc,
		Retries:     cfg.retries,
		Backoff:     cfg.backoff,
		MaxOffline:  cfg.maxOffline,
	})
	fmt.Fprintf(os.Stderr, "worker %s -> %s\n", w.Name(), cfg.url)
	if err := w.Run(ctx); err != nil {
		if ctx.Err() != nil {
			fmt.Fprintf(os.Stderr, "worker %s: aborted (%v), shard lease will reassign\n", w.Name(), err)
			return 130
		}
		if errors.Is(err, sweepd.ErrUnreachable) {
			// Distinct from a hard failure: everything this worker
			// reported is safe in the coordinator's store, and a
			// restarted worker resumes the sweep where the fleet is.
			fmt.Fprintf(os.Stderr, "worker %s: %v; drained cleanly — restart this worker to resume\n", w.Name(), err)
			return 130
		}
		return fail(err)
	}
	fmt.Fprintf(os.Stderr, "worker %s: sweep done (%d shards completed here)\n", w.Name(), w.ShardsCompleted())
	return 0
}

// claimRetryHint is the wait the coordinator hands a worker whose claim
// finds every remaining shard leased (internal/sweepd's retryMS).
const claimRetryHint = 500 * time.Millisecond

type coordinatorConfig struct {
	gridSpec                                        func() (sweep.Spec, error)
	storePath, journalPath                          string
	shards                                          int
	lease, stealAfter                               time.Duration
	httpAddr, runlogPath, telePath, format, outPath string
	quiet                                           bool
}

func runCoordinator(ctx context.Context, cfg coordinatorConfig) int {
	if cfg.storePath == "" {
		return fail(fmt.Errorf("sweepd: coordinator needs -store (the merged result store)"))
	}
	render, err := sweep.Renderer(cfg.format)
	if err != nil {
		return fail(err)
	}
	spec, err := cfg.gridSpec()
	if err != nil {
		return fail(err)
	}
	expandStart := time.Now()
	jobs, err := spec.Jobs()
	if err != nil {
		return fail(err)
	}
	expand := time.Since(expandStart)
	fmt.Fprintf(os.Stderr, "spec %q: %d jobs\n", spec.Name, len(jobs))

	store, err := sweep.OpenStore(cfg.storePath)
	if err != nil {
		return fail(err)
	}
	defer store.Close()
	fmt.Fprintf(os.Stderr, "store %s: %d results on disk\n", cfg.storePath, store.Len())

	logPath := cfg.runlogPath
	if logPath == "" {
		logPath = cfg.storePath + ".runlog"
	}
	var runlog *obs.RunLog
	if logPath != "off" {
		runlog, err = obs.OpenRunLog(logPath)
		if err != nil {
			return fail(err)
		}
		defer runlog.Close()
		fmt.Fprintf(os.Stderr, "run-log %s\n", logPath)
	}

	journalPath := cfg.journalPath
	if journalPath == "" {
		journalPath = cfg.storePath + ".journal"
	}
	var journal *sweepd.Journal
	if journalPath != "off" {
		journal, err = sweepd.OpenJournal(journalPath)
		if err != nil {
			return fail(err)
		}
	}

	mon := sweep.NewMonitor(spec.Name, len(jobs), nil, nil)
	mon.SetExpand(expand)
	coord, err := sweepd.NewCoordinator(jobs, sweepd.Config{
		Name:       spec.Name,
		Store:      store,
		Shards:     cfg.shards,
		LeaseTTL:   cfg.lease,
		Monitor:    mon,
		RunLog:     runlog,
		Journal:    journal,
		StealAfter: cfg.stealAfter,
	})
	if err != nil {
		return fail(err)
	}
	if journal != nil {
		fmt.Fprintf(os.Stderr, "journal %s (epoch %d): a restarted coordinator resumes this sweep and fences stale leases\n",
			journalPath, journal.Epoch)
	}

	srv, err := obs.Serve(cfg.httpAddr, coord.Handler())
	if err != nil {
		return fail(err)
	}
	defer srv.Close()
	fmt.Fprintf(os.Stderr, "coordinator http://%s (claim/heartbeat/report/complete, /status)\n", srv.Addr())

	if !cfg.quiet {
		go progressLoop(ctx, coord)
	}

	aborted := false
	select {
	case <-coord.Done():
		// A worker told to retry sleeps out the claim hint before it
		// asks again. Keep answering "done" for two hints before the
		// deferred Close, so no worker wakes to a closed port and waits
		// out its -max-offline budget instead of exiting.
		lingerUntil := time.Now().Add(2 * claimRetryHint)
		defer func() {
			select {
			case <-time.After(time.Until(lingerUntil)):
			case <-ctx.Done():
			}
		}()
	case <-ctx.Done():
		coord.Abort()
		aborted = true
	}

	writeStatus := func() {
		if cfg.telePath == "" {
			return
		}
		snap, err := json.MarshalIndent(coord.Status(), "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return
		}
		if err := os.WriteFile(cfg.telePath, append(snap, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return
		}
		fmt.Fprintf(os.Stderr, "wrote status snapshot %s\n", cfg.telePath)
	}

	if aborted {
		writeStatus()
		fmt.Fprintf(os.Stderr, "aborted; store %s has %d records, re-run to resume\n",
			cfg.storePath, store.Len())
		return 130
	}

	outs := coord.Outcomes()
	ran, resumed := 0, 0
	for _, o := range outs {
		if o.FromStore {
			resumed++
		} else if o.Err == nil {
			ran++
		}
	}
	fmt.Fprintf(os.Stderr, "fleet ran %d, resumed %d, errors %d\n", ran, resumed, coord.Errors())
	if ran > 0 {
		fmt.Fprint(os.Stderr, mon.Breakdown())
	}
	if st := coord.Status(); st.Shards.Split > 0 || st.Shards.StealsRejected > 0 {
		fmt.Fprintf(os.Stderr, "  steals: %d shards split, %d jobs stolen, %d evaluations declined\n",
			st.Shards.Split, st.Shards.JobsStolen, st.Shards.StealsRejected)
	}
	writeStatus()

	groups := sweep.Aggregate(outs)
	rendered := render("Sweep "+spec.Name, groups)
	if cfg.outPath == "" {
		fmt.Print(rendered)
	} else {
		if err := os.WriteFile(cfg.outPath, []byte(rendered), 0o644); err != nil {
			return fail(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d cells)\n", cfg.outPath, len(groups))
	}
	if coord.Errors() > 0 {
		return 1
	}
	return 0
}

// progressLoop prints a heartbeat line while the fleet works.
func progressLoop(ctx context.Context, coord *sweepd.Coordinator) {
	t := time.NewTicker(2 * time.Second)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-coord.Done():
			return
		case <-t.C:
			s := coord.Status()
			fmt.Fprintf(os.Stderr, "[%d/%d] shards %d/%d done (%d active), %d workers alive\n",
				s.Sweep.Done, s.Sweep.Total, s.Shards.Completed, s.Shards.Total,
				s.Shards.Active, len(s.Workers))
		}
	}
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, err)
	return 1
}
