// Command sweep runs a scenario grid through the parallel sweep
// scheduler: cartesian products over network size, degree, fault
// exponent δ, placement, adversary, algorithm, ε, churn model, message
// loss, and churn/join fractions expand into content-hashed jobs, execute
// across a bounded worker set with a shared network cache, and stream
// into a JSONL result store. Re-running with the same -store skips every
// job already recorded, so interrupted full-scale sweeps resume where
// they stopped.
//
// Usage:
//
//	sweep -n 256,512 -delta 0.75 -adv none,inflate,oracle -trials 8
//	sweep -n 1024 -loss 0,0.05,0.1 -adv inflate -trials 8     # lossy links
//	sweep -n 1024 -fault join -join 0.1,0.2 -trials 8         # dynamic churn
//	sweep -n 512 -delta 0.5 -placement random,degree,chain -adv chain-faker
//	sweep -spec grid.json -store results.jsonl -workers 8
//	sweep -spec grid.json -store results.jsonl            # resume
//
// Aggregates are identical for any -workers value: execution order never
// reaches the fold.
//
// Observability: -http :8765 serves a live /status JSON document
// (progress, ETA, stage-time breakdown, cache hit rates, telemetry
// snapshot) plus expvar and net/http/pprof while the sweep runs; -store
// sweeps also write a JSONL run-log of scheduler lifecycle events beside
// the result store (override with -runlog); -telemetry writes the final
// registry snapshot as JSON; -cpuprofile/-memprofile capture
// runtime/pprof artifacts for offline diagnosis.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/sweep"
)

// main delegates to run so run's defers (store close+sync, run-log
// close, profile and snapshot flushes) execute before the process exits
// — including on a SIGINT/SIGTERM abort, which drains in-flight jobs
// and leaves a resumable store behind instead of vanishing mid-write.
func main() {
	os.Exit(run())
}

func run() int {
	gridSpec := sweep.GridFlags(flag.CommandLine)
	var (
		workers    = flag.Int("workers", 0, "concurrent jobs (0 = GOMAXPROCS)")
		runWorkers = flag.Int("run-workers", 0, "sim workers per job (0 = auto)")
		cacheCap   = flag.Int("cache", 0, "network cache capacity (0 = default)")
		netstore   = flag.String("netstore", "", "topology store: a root directory, \"on\" (user cache dir), or \"off\" (default: $REPRO_NETSTORE)")
		storePath  = flag.String("store", "", "JSONL result store (enables resume)")
		format     = flag.String("format", "md", "aggregate output format: md | csv")
		outPath    = flag.String("o", "", "write aggregates to this file (default: stdout)")
		quiet      = flag.Bool("q", false, "suppress progress output")
		httpAddr   = flag.String("http", "", "serve live /status, expvar, and pprof on this address (e.g. :8765)")
		runlogPath = flag.String("runlog", "", "JSONL run-log path (default: <store>.runlog beside -store; \"off\" disables)")
		telePath   = flag.String("telemetry", "", "write the final telemetry snapshot (JSON) to this file")
		cpuProfile = flag.String("cpuprofile", "", "write a runtime/pprof CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a runtime/pprof heap profile to this file at exit")
	)
	flag.Parse()

	render, err := sweep.Renderer(*format)
	if err != nil {
		fatal(err)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		stopCPUProfile = func() { pprof.StopCPUProfile(); f.Close() }
	}
	defer flushProfiles(*memProfile)

	spec, err := gridSpec()
	if err != nil {
		fatal(err)
	}

	expandStart := time.Now()
	jobs, err := spec.Jobs()
	if err != nil {
		fatal(err)
	}
	expand := time.Since(expandStart)
	fmt.Fprintf(os.Stderr, "spec %q: %d jobs\n", spec.Name, len(jobs))

	// The -netstore flag overrides the REPRO_NETSTORE environment
	// default with the same vocabulary (on/off/0/1/dir), and is resolved
	// before any cache exists so an override never opens (or mkdirs) the
	// environment's store as a side effect. An explicitly requested
	// store that cannot be opened is an error — silently sweeping
	// without it would regenerate every topology the user asked to
	// serve from disk. (The environment path stays best-effort:
	// EnvNetStore degrades to nil.)
	var cache *sweep.NetCache
	if *netstore != "" {
		ns, err := sweep.ResolveNetStore(*netstore)
		if err != nil {
			fatal(err)
		}
		cache = sweep.NewNetCacheWithStore(*cacheCap, ns)
	} else {
		cache = sweep.NewNetCache(*cacheCap)
	}
	opts := sweep.Options{
		Workers:    *workers,
		RunWorkers: *runWorkers,
		Cache:      cache,
	}
	if *storePath != "" {
		store, err := sweep.OpenStore(*storePath)
		if err != nil {
			fatal(err)
		}
		defer store.Close()
		fmt.Fprintf(os.Stderr, "store %s: %d results on disk\n", *storePath, store.Len())
		opts.Store = store
	}

	// The run-log lives beside the result store by default: a resumed
	// sweep appends to both, so the store's results and the log of how
	// they were produced travel together.
	logPath := *runlogPath
	if logPath == "" && *storePath != "" {
		logPath = *storePath + ".runlog"
	}
	if logPath != "" && logPath != "off" {
		runlog, err := obs.OpenRunLog(logPath)
		if err != nil {
			fatal(err)
		}
		defer runlog.Close()
		fmt.Fprintf(os.Stderr, "run-log %s\n", logPath)
		opts.RunLog = runlog
	}

	// Live observability: the monitor folds every completed outcome; the
	// -http endpoint renders its Status (plus expvar and pprof) while
	// workers are mid-grid.
	mon := sweep.NewMonitor(spec.Name, len(jobs), opts.Cache, nil)
	mon.SetExpand(expand)
	opts.Progress = func(done, total int, out sweep.Outcome) {
		mon.Observe(done, total, out)
		if !*quiet {
			state := "ran"
			if out.FromStore {
				state = "skip"
			}
			fmt.Fprintf(os.Stderr, "[%d/%d] %s %s\n", done, total, state, out.Job.Label())
		}
	}
	if *httpAddr != "" {
		// /debug/vars carries the registry too, for expvar-speaking
		// scrapers; /status embeds the same snapshot with progress.
		expvar.Publish("obs", obs.Default.ExpvarFunc())
		srv, err := obs.Serve(*httpAddr, obs.Handler(nil, func() any { return mon.Status() }))
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "telemetry http://%s/status (expvar: /debug/vars, pprof: /debug/pprof/)\n", srv.Addr())
	}

	// Ctrl-C (or a SIGTERM from a supervisor — sweepd workers that lose
	// a lease reuse this same drain path) cancels the sweep context: the
	// scheduler stops dispatching, in-flight jobs drain into the store,
	// the run-log gets its sweep_end with aborted:true, and the deferred
	// closers flush the telemetry snapshot and pprof artifacts below. A
	// second signal kills the process immediately.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	go func() {
		<-ctx.Done()
		stopSignals()
	}()

	start := time.Now()
	outs, err := sweep.RunContext(ctx, jobs, opts)
	aborted := err != nil && errors.Is(err, context.Canceled)
	if err != nil && !aborted {
		fatal(err)
	}
	ran, skipped := 0, 0
	for _, o := range outs {
		if o.FromStore {
			skipped++
		} else if o.Err == nil {
			ran++
		}
	}
	hits, misses := opts.Cache.Stats()
	diskHits, diskOn := opts.Cache.DiskStats()
	disk := ""
	if diskOn {
		disk = fmt.Sprintf(" (%d misses served from the topology store)", diskHits)
	}
	fmt.Fprintf(os.Stderr, "ran %d, resumed %d, %s; network cache %d hits / %d misses%s\n",
		ran, skipped, time.Since(start).Round(time.Millisecond), hits, misses, disk)
	if ran > 0 {
		fmt.Fprint(os.Stderr, mon.Breakdown())
	}
	if *telePath != "" {
		snap, err := json.MarshalIndent(mon.Status(), "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*telePath, append(snap, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote telemetry snapshot %s\n", *telePath)
	}
	if aborted {
		// Drained: everything that ran is in the store, the snapshot and
		// profiles flush on the way out. Partial aggregates would
		// masquerade as the grid's answer, so none are rendered — the
		// store resumes this sweep instead.
		fmt.Fprintf(os.Stderr, "aborted: %v; re-run with the same -store to resume\n", err)
		return 130
	}

	groups := sweep.Aggregate(outs)
	rendered := render("Sweep "+spec.Name, groups)
	if *outPath == "" {
		fmt.Print(rendered)
		return 0
	}
	if err := os.WriteFile(*outPath, []byte(rendered), 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d cells)\n", *outPath, len(groups))
	return 0
}

// stopCPUProfile, when profiling, flushes and closes the CPU profile;
// fatal runs it so an error exit still leaves a readable artifact.
var stopCPUProfile func()

// flushProfiles finalizes the pprof artifacts on the way out.
func flushProfiles(memPath string) {
	if stopCPUProfile != nil {
		stopCPUProfile()
		stopCPUProfile = nil
	}
	if memPath != "" {
		f, err := os.Create(memPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return
		}
		defer f.Close()
		runtime.GC() // up-to-date heap statistics
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}
}

func fatal(err error) {
	if stopCPUProfile != nil {
		stopCPUProfile()
		stopCPUProfile = nil
	}
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
