// Command benchmark is the repository's end-to-end benchmark: it runs
// whole sweeps the way cmd/sweep and cmd/sweepd do and reports what a
// user waits for, and, in a traced run, where the time went layer by
// layer. See README.md for the workloads, the metrics and how to read
// them.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash benchmark/run.sh -workload ref-local -seed 1 -seconds 26 -trace 0
//	bash benchmark/run.sh -workload ref-fleet -seed 1 -trace 1
//	bash benchmark/run.sh -agree a.jsonl b.jsonl
//
// A run repeats its workload in rounds for -seconds: a warm-up round,
// then as many measured rounds as fit (at least three; a traced run pairs
// an untraced and a traced round of each input, at least two pairs). Its
// standard output ends with a record line (workload, provenance,
// metrics) and then the result line
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// untraced, the per-layer metrics traced.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/sweep"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name      = flag.String("workload", "", "workload: ref-local | ref-fleet | topo-cold | topo-warm")
		seed      = flag.Uint64("seed", 1, "input seed: round 0 runs the grid with this base seed")
		seconds   = flag.Float64("seconds", 26, "measure for this long (whole rounds, at least the minimum count)")
		traceFlag = flag.Int("trace", 0, "1: traced run — per-layer metrics, slot table, and a trace file under .bench_build/trace")
		agreeMode = flag.Bool("agree", false, "compare two JSONL files of run output: -agree a.jsonl b.jsonl")
	)
	flag.Parse()

	if *agreeMode {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -agree a.jsonl b.jsonl")
			return 2
		}
		ok, err := runAgree(os.Stdout, benchmarkFilePath(), flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		if !ok {
			return 1
		}
		return 0
	}

	if err := envGuard(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *name)
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(os.Stderr, "-trace must be 0 or 1, not %d\n", *traceFlag)
		return 2
	}
	cfg := config{
		w:        w,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		traced:   *traceFlag == 1,
		traceDir: filepath.Join(".bench_build", "trace"),
		trials:   w.trials,
	}
	// A run must end well inside three minutes; a hung sweep is
	// abandoned as an error instead.
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	res, err := execute(ctx, cfg, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	metrics := res.endToEnd
	if cfg.traced {
		metrics = res.perLayer
	}
	rec := record{
		Workload: w.name, Seed: cfg.seed, Trace: cfg.traced, Rounds: res.rounds,
		Provenance: provenanceOf(cfg), Correct: res.correct,
		Attempted: res.attempted, Failed: res.failed, Metrics: metrics,
	}
	line, _ := json.Marshal(rec)
	fmt.Println(string(line))
	line, _ = json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct, res.attempted, res.failed, metrics})
	fmt.Println(string(line))
	if !res.correct {
		return 1
	}
	return 0
}

const runDeadline = 150 * time.Second

// envGuard refuses to run under any of the environment switches that
// select a non-default execution path, so the numbers always describe
// the defaults.
func envGuard() error {
	for _, v := range []string{"REPRO_BATCH", "REPRO_FRONTIER", "REPRO_NETSTORE", "REPRO_STEAL"} {
		if _, set := os.LookupEnv(v); set {
			return fmt.Errorf("refusing to run: %s is set; the benchmark measures the default execution paths", v)
		}
	}
	return nil
}

// benchmarkFilePath finds BENCHMARK.json from the repository root or
// from the benchmark directory.
func benchmarkFilePath() string {
	if _, err := os.Stat("BENCHMARK.json"); err == nil {
		return "BENCHMARK.json"
	}
	return filepath.Join("..", "BENCHMARK.json")
}

// provenance says what produced a result.
type provenance struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// VCS is the git revision the binary was built from, suffixed
	// "-dirty" for uncommitted changes; "unknown" outside a checkout.
	VCS    string `json:"vcs"`
	Seed   uint64 `json:"seed"`
	Trials int    `json:"trials"`
}

func provenanceOf(cfg config) provenance {
	p := provenance{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		VCS: "unknown", Seed: cfg.seed, Trials: cfg.trials,
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		var rev, modified string
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
		if rev != "" {
			p.VCS = rev[:min(len(rev), 12)]
			if modified == "true" {
				p.VCS += "-dirty"
			}
		}
	}
	return p
}

// config is one run's parameters.
type config struct {
	w        workload
	seed     uint64
	seconds  time.Duration
	traced   bool
	traceDir string // "" writes no trace file
	trials   int
	// minRounds overrides the minimum number of measured rounds (pairs
	// when traced); 0 keeps the default. The smoke test lowers it.
	minRounds int
	// noWarmup measures the first round too instead of running it as a
	// warm-up; the smoke test sets it.
	noWarmup bool
}

// runResult is one run's outcome.
type runResult struct {
	rounds            int
	correct           bool
	attempted, failed int
	problems          []string
	endToEnd          map[string]value
	perLayer          map[string]value
	digest            string  // round 0's aggregate digest
	slotError         float64 // worst traced round's slot-table imbalance
}

// execute runs cfg's rounds, checks them, and computes the metrics.
// Progress and reports go to log.
func execute(ctx context.Context, cfg config, log io.Writer) (runResult, error) {
	var res runResult
	minRounds := cfg.minRounds
	if minRounds == 0 {
		minRounds = 3
		if cfg.traced {
			minRounds = 2
		}
	}
	warmup := 1
	if cfg.noWarmup {
		warmup = 0
	}
	base, err := os.MkdirTemp("", "repro-bench-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(base)

	var (
		plain, traced []roundResult
		first         []sweep.Outcome
		firstJobs     []sweep.Job
		longest       time.Duration // the longest round so far, set-up and checks included
	)
	start := time.Now()
	for r := 0; ; r++ {
		// Past the minimum, a round starts only if it should end within
		// -seconds, so a run never overshoots by a whole round.
		if r >= warmup+minRounds && time.Since(start)+longest > cfg.seconds {
			break
		}
		roundStart := time.Now()
		spec := cfg.w.spec(roundSeed(cfg.seed, r), cfg.trials)
		variants := []bool{false}
		if cfg.traced {
			variants = append(variants, true)
		}
		var digest string
		for _, tracedRound := range variants {
			dir := filepath.Join(base, fmt.Sprintf("round-%d-%t", r, tracedRound))
			if err := os.Mkdir(dir, 0o755); err != nil {
				return res, err
			}
			rr, err := cfg.w.round(ctx, spec, dir, tracedRound)
			os.RemoveAll(dir)
			if err != nil {
				return res, fmt.Errorf("%s round %d: %w", cfg.w.name, r, err)
			}
			label := ""
			if tracedRound {
				label = " (traced)"
			}
			fmt.Fprintf(log, "%s round %d%s: %d jobs, setup %.4fs (median of %d), sweep %.3fs, cpu %.3fs, mem %.1f MB, digest %s\n",
				cfg.w.name, r, label, rr.jobs, seconds(rr.setups), len(rr.setups),
				rr.wall.Seconds(), rr.cpu.Seconds(), megabytes(rr.mem), rr.digest)
			res.attempted += rr.jobs
			res.failed += rr.failed
			res.problems = append(res.problems, rr.problems...)
			if pinned, ok := pinnedDigest(cfg, r); ok && rr.digest != pinned {
				res.problems = append(res.problems, fmt.Sprintf("round %d aggregates %s, pinned %s", r, rr.digest, pinned))
			}
			if digest != "" && rr.digest != digest {
				res.problems = append(res.problems, fmt.Sprintf("round %d: traced aggregates differ from untraced", r))
			}
			digest = rr.digest
			if r == 0 && !tracedRound {
				res.digest = rr.digest
				first, firstJobs = rr.outs, rr.jobList
			}
			rr.outs, rr.jobList = nil, nil
			if tracedRound {
				traced = append(traced, rr)
			} else {
				plain = append(plain, rr)
			}
		}
		res.rounds = r + 1
		longest = max(longest, time.Since(roundStart))
	}
	// The warm-up round is checked like the others but left out of the
	// metrics: it pays for growing the heap and for the first touch of
	// its pages, which later rounds reuse.
	plain = plain[warmup:]
	if cfg.traced {
		traced = traced[warmup:]
	}
	res.endToEnd = endToEnd(plain)
	res.problems = append(res.problems, spotCheck(first, firstJobs, cfg)...)

	if cfg.traced {
		res.perLayer = perLayer(plain, traced)
		last := traced[len(traced)-1]
		for _, rr := range traced {
			res.slotError = max(res.slotError, rr.slotError)
		}
		if res.slotError > 0.01 {
			res.problems = append(res.problems, fmt.Sprintf("slot table off by %.2f%% of %d × wall_s", 100*res.slotError, slots))
		}
		writeSlotTable(log, last.table, last.off, last.wall)
		writeLayers(log, res.perLayer, len(last.spans))
		if cfg.traceDir != "" {
			path := filepath.Join(cfg.traceDir, cfg.w.name+".trace.json")
			if err := writeChromeTrace(path, last.spans, slots); err != nil {
				return res, err
			}
			fmt.Fprintf(log, "trace: %s (%d spans; open in https://ui.perfetto.dev or chrome://tracing)\n", path, len(last.spans))
		}
	}

	res.correct = len(res.problems) == 0
	for _, p := range res.problems {
		fmt.Fprintln(log, "CHECK FAILED:", p)
	}
	if !res.correct {
		// Any failed check voids the run: every job counts as failed.
		res.failed = res.attempted
	}
	fmt.Fprintf(log, "%s: %d rounds (%d warm-up), %d jobs, error rate %.4g\n",
		cfg.w.name, res.rounds, warmup, res.attempted, float64(res.failed)/float64(max(res.attempted, 1)))
	return res, nil
}

// spotCheck re-runs round 0's jobs — all of them on the cheap reference
// grid, a seeded sample on the topology tier — through a plain in-memory
// sweep with no result store, topology store or fleet, and requires each
// Summary to equal the one the measured path produced.
func spotCheck(outs []sweep.Outcome, jobs []sweep.Job, cfg config) []string {
	if len(outs) != len(jobs) || len(jobs) == 0 {
		return []string{"no outcomes to spot-check"}
	}
	n := len(jobs)
	if cfg.w.spot > 0 {
		n = min(cfg.w.spot, n)
	}
	idx := rand.New(rand.NewSource(int64(cfg.seed))).Perm(len(jobs))[:n]
	sort.Ints(idx)
	sample := make([]sweep.Job, len(idx))
	for k, i := range idx {
		sample[k] = jobs[i]
	}
	ref, err := sweep.Run(sample, sweep.Options{
		Workers:   slots,
		Cache:     sweep.NewNetCacheWithStore(0, nil),
		Telemetry: obs.NewRegistry(),
	})
	if err != nil {
		return []string{fmt.Sprintf("spot check: %v", err)}
	}
	var problems []string
	for k, i := range idx {
		if !reflect.DeepEqual(ref[k].Summary, outs[i].Summary) {
			problems = append(problems, fmt.Sprintf("spot check: job %s differs from an independent run", jobs[i].Label()))
		}
	}
	return problems
}

// endToEnd reduces the measured untraced rounds to the end-to-end
// metrics: medians across rounds (set-up: across every set-up of them).
func endToEnd(rounds []roundResult) map[string]value {
	var wall, cpu, setup, rate, mem []float64
	for _, rr := range rounds {
		wall = append(wall, rr.wall.Seconds())
		cpu = append(cpu, rr.cpu.Seconds())
		for _, d := range rr.setups {
			setup = append(setup, d.Seconds())
		}
		rate = append(rate, float64(rr.jobs)/rr.wall.Seconds())
		mem = append(mem, megabytes(rr.mem))
	}
	return map[string]value{
		"wall_s":      {median(wall), "s"},
		"jobs_per_s":  {median(rate), "jobs/s"},
		"cpu_s":       {median(cpu), "s"},
		"setup_s":     {median(setup), "s"},
		"peak_mem_mb": {median(mem), "MB"},
	}
}

// megabytes converts bytes to MB (2²⁰ bytes).
func megabytes(b uint64) float64 { return float64(b) / (1 << 20) }

// seconds is the median of ds in seconds.
func seconds(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return median(xs)
}

// perLayer reduces the traced rounds to the per-layer metrics: each the
// median across traced rounds, plus the tracing overhead measured
// against the untraced round of the same input.
func perLayer(plain, traced []roundResult) map[string]value {
	samples := map[string][]float64{}
	for _, rr := range traced {
		for name, v := range rr.layers {
			samples[name] = append(samples[name], v)
		}
	}
	var overhead []float64
	for i := range traced {
		overhead = append(overhead, traced[i].wall.Seconds()/plain[i].wall.Seconds()-1)
	}
	samples["trace.overhead"] = []float64{median(overhead)}
	out := map[string]value{}
	for _, d := range perLayerDefs {
		out[d.Name] = value{median(samples[d.Name]), d.Unit}
	}
	return out
}

// writeLayers prints the per-layer metrics.
func writeLayers(w io.Writer, m map[string]value, spans int) {
	fmt.Fprintf(w, "per-layer metrics (median across traced rounds; last round %d spans):\n", spans)
	for _, d := range perLayerDefs {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", d.Name, m[d.Name].Value, d.Unit)
	}
}
