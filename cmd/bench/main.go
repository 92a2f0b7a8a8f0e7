// Command bench runs the protocol-engine and sweep benchmarks outside
// `go test` and maintains a machine-readable perf trajectory (default
// BENCH_core.json): one append-only entry per engine milestone, keyed by
// `git describe`, each holding ns/op, allocs/op, bytes/op, and runs/sec
// per benchmark. Regenerate after engine work:
//
//	go run ./cmd/bench -o BENCH_core.json   # append a new entry
//	go run ./cmd/bench -quick               # small sizes, for smoke
//	go run ./cmd/bench -quick -compare BENCH_core.json
//	                                        # CI regression gate: re-measure
//	                                        # the core/run cases present in
//	                                        # the last committed entry and
//	                                        # fail on >15% ns/op regression
//
// The benchmarks mirror internal/core/bench_test.go: "fresh" entries pay
// arena construction per run, "arena" entries reuse one World on a
// cached network (the sweep scheduler's cache-hit path), and the
// "hiphase" pair drives the engine into the high-phase regime the
// frontier scheduler exploits — a final-round injection timing attack
// keeps a handful of nodes active to the MaxPhase cap while the flood
// quiesces, measured with the frontier engine and with the dense
// reference loop so the speedup is visible inside each trajectory entry.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/graphio"
	"repro/internal/hgraph"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/sweep"
)

type benchResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	RunsPerSec  float64 `json:"runs_per_sec"`
	Iterations  int     `json:"iterations"`
}

// entry is one trajectory data point: the benchmarks of one engine state.
type entry struct {
	Label      string        `json:"label"`
	GoVersion  string        `json:"go_version"`
	GOOS       string        `json:"goos"`
	GOARCH     string        `json:"goarch"`
	NumCPU     int           `json:"num_cpu"`
	Note       string        `json:"note,omitempty"`
	Benchmarks []benchResult `json:"benchmarks"`
}

// trajectory is the committed BENCH_core.json shape: append-only series,
// one entry per PR that touched the engine.
type trajectory struct {
	Series []entry `json:"series"`
}

// loadTrajectory reads path. A missing file is an empty trajectory; a
// file without a "series" array is an error, so a hand-mangled committed
// series is refused rather than overwritten.
func loadTrajectory(path string) (trajectory, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return trajectory{}, nil
	}
	if err != nil {
		return trajectory{}, err
	}
	var tr trajectory
	if err := json.Unmarshal(data, &tr); err != nil {
		return trajectory{}, fmt.Errorf("parse %s: %w", path, err)
	}
	if tr.Series == nil {
		return trajectory{}, fmt.Errorf("parse %s: not a trajectory file (no \"series\" array)", path)
	}
	return tr, nil
}

func measure(c benchCase) benchResult {
	fmt.Fprintf(os.Stderr, "bench %-34s ", c.name)
	r := testing.Benchmark(c.fn)
	out := benchResult{
		Name:        c.name,
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		Iterations:  r.N,
	}
	if out.NsPerOp > 0 {
		out.RunsPerSec = 1e9 / out.NsPerOp
	}
	fmt.Fprintf(os.Stderr, "%12.0f ns/op %10d B/op %8d allocs/op\n", out.NsPerOp, out.BytesPerOp, out.AllocsPerOp)
	return out
}

// benchCase is one named benchmark the tool can run (and re-run in
// compare mode).
type benchCase struct {
	name string
	fn   func(b *testing.B)
}

// cases builds the benchmark registry for the selected scale.
func cases(quick bool) []benchCase {
	sizes := []int{512, 1024, 4096, 16384}
	hiphase := []struct{ n, maxPhase int }{{4096, 28}, {16384, 28}}
	genSizes := []int{16384, 65536}
	genRefSizes := []int{16384} // the seed path at 65536 is prohibitively slow
	loadSizes := []int{16384, 65536}
	countSizes := []int{512, 4096}
	if quick {
		sizes = []int{512}
		hiphase = []struct{ n, maxPhase int }{{512, 14}}
		genSizes = []int{1024}
		genRefSizes = []int{1024}
		loadSizes = []int{1024}
		countSizes = []int{512}
	}

	nets := map[int]*hgraph.Network{}
	byzs := map[int][]bool{}
	prime := func(n int) {
		if _, ok := nets[n]; ok {
			return
		}
		nets[n] = hgraph.MustNew(hgraph.Params{N: n, D: 8, Seed: 11})
		nets[n].S() // counted outside the timed runs, as a cached network's would be
		byzs[n] = hgraph.PlaceByzantine(n, hgraph.ByzantineBudget(n, 0.75), rng.New(12))
	}
	cfg := core.Config{Algorithm: core.AlgorithmByzantine, Seed: 13, Workers: 1}

	var cs []benchCase
	for _, n := range sizes {
		n := n
		prime(n)
		if n < 16384 {
			// Fresh-arena construction stops being interesting at the
			// largest size; the arena path is what the sweep runs.
			cs = append(cs, benchCase{name: fmt.Sprintf("core/run-fresh/n=%d", n), fn: func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := core.Run(nets[n], byzs[n], nil, cfg); err != nil {
						b.Fatal(err)
					}
				}
			}})
		}
		// The nil adversary never lies; the liar case is the same arena
		// run under topology-liar, so it reaches the claimed-topology
		// check.
		for _, ac := range []struct {
			name string
			adv  core.Adversary
		}{{"arena", nil}, {"liar", adversary.TopologyLiar{}}} {
			ac := ac
			cs = append(cs, benchCase{name: fmt.Sprintf("core/run-%s/n=%d", ac.name, n), fn: func(b *testing.B) {
				w := core.NewWorld()
				defer w.Close()
				if _, err := w.Run(nets[n], byzs[n], ac.adv, cfg); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := w.Run(nets[n], byzs[n], ac.adv, cfg); err != nil {
						b.Fatal(err)
					}
				}
			}})
		}
	}

	for _, hp := range hiphase {
		hp := hp
		prime(hp.n)
		// One injector is enough to keep its neighborhood active to the
		// cap; more injectors mean more straggler-generated waves and
		// less quiescence to exploit.
		byzOne := hgraph.PlaceByzantine(hp.n, 1, rng.New(12))
		for _, mode := range []struct {
			suffix string
			fm     core.FrontierMode
		}{{"", core.FrontierOn}, {"-dense", core.FrontierOff}} {
			mode := mode
			name := fmt.Sprintf("core/run-hiphase%s/n=%d", mode.suffix, hp.n)
			cs = append(cs, benchCase{name: name, fn: func(b *testing.B) {
				hcfg := core.Config{
					Algorithm:      core.AlgorithmBasic,
					Seed:           13,
					Workers:        1,
					MaxPhase:       hp.maxPhase,
					FrontierRounds: mode.fm,
				}
				w := core.NewWorld()
				defer w.Close()
				if _, err := w.Run(nets[hp.n], byzOne, adversary.FinalRoundInflate{}, hcfg); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := w.Run(nets[hp.n], byzOne, adversary.FinalRoundInflate{}, hcfg); err != nil {
						b.Fatal(err)
					}
				}
			}})
		}
	}

	// Topology pipeline: generation on the fast path with G built, the
	// seed reference generator, which builds G eagerly (same machine, so
	// each entry records the speedup ratio), and a disk-tier hit (what a
	// warm store turns a cache miss into; a blob holds no G).
	for _, n := range genSizes {
		n := n
		cs = append(cs, benchCase{name: fmt.Sprintf("hgraph/gen/n=%d", n), fn: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				net, err := hgraph.New(hgraph.Params{N: n, D: 8, Seed: 11})
				if err != nil {
					b.Fatal(err)
				}
				net.G()
			}
		}})
	}
	for _, n := range genRefSizes {
		n := n
		cs = append(cs, benchCase{name: fmt.Sprintf("hgraph/gen-ref/n=%d", n), fn: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := hgraph.NewReference(hgraph.Params{N: n, D: 8, Seed: 11}); err != nil {
					b.Fatal(err)
				}
			}
		}})
	}
	for _, n := range loadSizes {
		n := n
		cs = append(cs, benchCase{name: fmt.Sprintf("graphio/load/n=%d", n), fn: func(b *testing.B) {
			store, err := graphio.OpenNetStore(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			p := hgraph.Params{N: n, D: 8, Seed: 11}
			net, err := hgraph.New(p)
			if err != nil {
				b.Fatal(err)
			}
			if err := store.Save(net, nil); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := store.Load(p); err != nil {
					b.Fatal(err)
				}
			}
		}})
	}

	// S = Σ_v deg_G(v), counted by the first Algorithm 2 run on each
	// network: every cache miss pays it. A Network memoises its count, so
	// each iteration counts on a fresh Network over one primed H.
	for _, n := range countSizes {
		n := n
		prime(n)
		cs = append(cs, benchCase{name: fmt.Sprintf("hgraph/count-s/n=%d", n), fn: func(b *testing.B) {
			h := nets[n]
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				net := &hgraph.Network{Params: h.Params, H: h.H, K: h.K, IDs: h.IDs}
				net.S()
			}
		}})
	}

	// The sweep scheduler's steady state: a warmed network cache, one
	// arena per worker, grid cells streaming through.
	sweepN := sizes[0]
	cs = append(cs, benchCase{name: fmt.Sprintf("sweep/cached/n=%d", sweepN), fn: func(b *testing.B) {
		spec := sweep.Spec{
			Name:        "bench",
			Sizes:       []int{sweepN},
			Deltas:      []float64{0.75},
			Adversaries: []string{"none", "inflate", "suppress", "oracle"},
			Trials:      2,
			Seed:        41,
		}
		jobs, err := spec.Jobs()
		if err != nil {
			b.Fatal(err)
		}
		cache := sweep.NewNetCache(0)
		opts := sweep.Options{Workers: 1, Cache: cache, Band: metrics.DefaultBand}
		if _, err := sweep.Run(jobs, opts); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sweep.Run(jobs, opts); err != nil {
				b.Fatal(err)
			}
		}
	}})
	return cs
}

// gitLabel derives the trajectory key for a new entry.
func gitLabel() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// measureBest runs a benchmark several times and keeps the fastest
// ns/op sample (the standard noise-robust statistic for a gate — a slow
// sample is load, a fast sample is the machine). Alloc/byte counts are
// deterministic and taken from the last run.
func measureBest(c benchCase) benchResult {
	best := measure(c)
	for i := 0; i < 2; i++ {
		if r := measure(c); r.NsPerOp < best.NsPerOp {
			best = r
		}
	}
	return best
}

// minSpeedup is the floor compare enforces on the same-run
// dense-vs-frontier ratio of each hiphase pair available at the current
// scale. The committed full-scale entries show 2.3×; the quick n=512
// configuration measures ~1.4×; 1.1 leaves noise room while still
// catching any change that erases the frontier engine's win.
const minSpeedup = 1.1

// minGenSpeedup is the floor on the same-run reference-vs-fast topology
// generation ratio (hgraph/gen-ref over hgraph/gen at the same n; both
// time the lattice closure). Measured on a 2-vCPU VM: 5.6× at n=16384,
// where Network.G fans the closure out over both cores, and 5.1–5.4× at
// the quick n=1024, which runs serially. 1.3 leaves noise room while
// catching any change that erases the fast path's win.
const minGenSpeedup = 1.3

// compare re-measures the core/run benchmarks of the baseline's last
// entry that this run also has and writes a benchstat-style table. Two
// machine-independent checks always gate:
// allocs/op may not grow (beyond a 0.5% slack absorbing GC-cadence
// noise in the setup-heavy cases), and each hiphase frontier/dense pair
// measured in THIS run must keep a ≥ minSpeedup dense-to-frontier ratio. The
// absolute ns/op threshold (maxRegress) additionally gates only when the
// baseline entry was recorded on matching hardware — absolute
// nanoseconds from a different machine are not a regression signal, so
// elsewhere the delta column is informational. Skipped baseline cases
// are listed, and comparing nothing is an error, not a pass.
func compare(baseline trajectory, cs []benchCase, maxRegress float64, out *strings.Builder) error {
	if len(baseline.Series) == 0 {
		return fmt.Errorf("baseline has no entries")
	}
	last := baseline.Series[len(baseline.Series)-1]
	byName := map[string]benchCase{}
	for _, c := range cs {
		byName[c.name] = c
	}
	sameMachine := last.GOOS == runtime.GOOS && last.GOARCH == runtime.GOARCH && last.NumCPU == runtime.NumCPU()
	fmt.Fprintf(out, "baseline entry: %s (%s, %s/%s, %d cpu)\n", last.Label, last.GoVersion, last.GOOS, last.GOARCH, last.NumCPU)
	if sameMachine {
		fmt.Fprintf(out, "hardware matches: ns/op gated at %+.0f%%\n\n", maxRegress*100)
	} else {
		fmt.Fprintf(out, "hardware differs (this machine: %s/%s, %d cpu): ns/op informational; gating allocs/op and the frontier speedup ratio\n\n", runtime.GOOS, runtime.GOARCH, runtime.NumCPU())
	}
	fmt.Fprintf(out, "%-36s %14s %14s %8s %12s %12s\n", "name", "old ns/op", "new ns/op", "delta", "old allocs", "new allocs")
	var failures []string
	compared := 0
	measured := map[string]benchResult{}
	for _, old := range last.Benchmarks {
		if !strings.HasPrefix(old.Name, "core/run") {
			continue
		}
		c, ok := byName[old.Name]
		if !ok {
			fmt.Fprintf(out, "%-36s skipped: not among this run's cases\n", old.Name)
			continue
		}
		now := measureBest(c)
		measured[c.name] = now
		compared++
		delta := now.NsPerOp/old.NsPerOp - 1
		fmt.Fprintf(out, "%-36s %14.0f %14.0f %+7.1f%% %12d %12d\n",
			old.Name, old.NsPerOp, now.NsPerOp, delta*100, old.AllocsPerOp, now.AllocsPerOp)
		if sameMachine && delta > maxRegress {
			failures = append(failures, fmt.Sprintf("%s: ns/op %+.1f%% (limit %+.0f%%)", old.Name, delta*100, maxRegress*100))
		}
		// Alloc counts of the setup-heavy fresh/arena cases are not
		// perfectly deterministic: a run's total includes runtime
		// activity whose cadence tracks GC frequency, and the quick
		// gate's process primes a far smaller heap than the full-scale
		// record run, shifting that cadence (observed ±2 on ~1550
		// allocs/op). A 0.5% slack absorbs it; integer division keeps
		// the gate exact for the lean cases — the 5-alloc hiphase paths
		// (and any future 0-alloc case) get zero slack.
		if slack := old.AllocsPerOp / 200; now.AllocsPerOp > old.AllocsPerOp+slack {
			failures = append(failures, fmt.Sprintf("%s: allocs/op %d -> %d", old.Name, old.AllocsPerOp, now.AllocsPerOp))
		}
	}
	if compared == 0 {
		return fmt.Errorf("no baseline core/run case is available at this scale — the gate compared nothing")
	}

	// Same-run frontier-vs-dense ratio: machine-independent, and the
	// invariant the engine exists for. Measure any hiphase pair the
	// current scale provides that the baseline loop did not already run.
	for _, c := range cs {
		if !strings.HasPrefix(c.name, "core/run-hiphase/") {
			continue
		}
		denseName := strings.Replace(c.name, "core/run-hiphase/", "core/run-hiphase-dense/", 1)
		dc, ok := byName[denseName]
		if !ok {
			continue
		}
		fr, ok := measured[c.name]
		if !ok {
			fr = measureBest(c)
			measured[c.name] = fr
		}
		dn, ok := measured[denseName]
		if !ok {
			dn = measureBest(dc)
			measured[denseName] = dn
		}
		ratio := dn.NsPerOp / fr.NsPerOp
		fmt.Fprintf(out, "\n%-36s dense/frontier = %.2fx (floor %.2fx)\n", c.name, ratio, minSpeedup)
		if ratio < minSpeedup {
			failures = append(failures, fmt.Sprintf("%s: frontier speedup %.2fx below %.2fx floor", c.name, ratio, minSpeedup))
		}
	}

	// Same-run topology-generation ratio: the fast path vs the in-tree
	// seed reference, both with G built, machine-independent like the
	// frontier ratio. The disk-tier cost of a blob is reported alongside
	// (informational: it measures the page cache as much as the codec).
	for _, c := range cs {
		if !strings.HasPrefix(c.name, "hgraph/gen/") {
			continue
		}
		refName := strings.Replace(c.name, "hgraph/gen/", "hgraph/gen-ref/", 1)
		rc, ok := byName[refName]
		if !ok {
			continue
		}
		fast := measureBest(c)
		ref := measureBest(rc)
		ratio := ref.NsPerOp / fast.NsPerOp
		fmt.Fprintf(out, "\n%-36s ref/fast = %.2fx (floor %.2fx)\n", c.name, ratio, minGenSpeedup)
		if ratio < minGenSpeedup {
			failures = append(failures, fmt.Sprintf("%s: generation speedup %.2fx below %.2fx floor", c.name, ratio, minGenSpeedup))
		}
		if lc, ok := byName[strings.Replace(c.name, "hgraph/gen/", "graphio/load/", 1)]; ok {
			load := measureBest(lc)
			fmt.Fprintf(out, "%-36s gen/load = %.2fx (informational)\n", lc.name, fast.NsPerOp/load.NsPerOp)
		}
	}

	if len(failures) > 0 {
		fmt.Fprintf(out, "\nREGRESSIONS:\n  %s\n", strings.Join(failures, "\n  "))
		return fmt.Errorf("%d benchmark regression(s)", len(failures))
	}
	fmt.Fprintf(out, "\nno regressions (%d cases compared)\n", compared)
	return nil
}

func main() {
	var (
		outPath     = flag.String("o", "BENCH_core.json", "trajectory file to append to (- for stdout)")
		quick       = flag.Bool("quick", false, "small sizes only (CI smoke)")
		note        = flag.String("note", "", "annotation recorded in the new entry")
		label       = flag.String("label", "", "trajectory key for the new entry (default: git describe)")
		comparePath = flag.String("compare", "", "compare against this baseline trajectory instead of appending")
		compareOut  = flag.String("compare-out", "", "also write the comparison table to this file")
		maxRegress  = flag.Float64("max-regress", 0.15, "ns/op regression threshold for -compare")
		cpuProfile  = flag.String("cpuprofile", "", "write a runtime/pprof CPU profile of the benchmark run to this file")
		memProfile  = flag.String("memprofile", "", "write a runtime/pprof heap profile to this file at exit")
	)
	flag.Parse()

	// Profiles turn a BENCH_core.json regression into an artifact to
	// diagnose instead of a run to reproduce: re-run the offending case
	// with -cpuprofile and read the flame graph.
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

	cs := cases(*quick)

	if *comparePath != "" {
		baseline, err := loadTrajectory(*comparePath)
		if err != nil {
			fatal(err)
		}
		var report strings.Builder
		cmpErr := compare(baseline, cs, *maxRegress, &report)
		fmt.Print(report.String())
		if *compareOut != "" {
			if err := os.WriteFile(*compareOut, []byte(report.String()), 0o644); err != nil {
				fatal(err)
			}
		}
		if cmpErr != nil {
			fatal(cmpErr)
		}
		return
	}

	e := entry{
		Label:     *label,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Note:      *note,
	}
	if e.Label == "" {
		e.Label = gitLabel()
	}
	for _, c := range cs {
		e.Benchmarks = append(e.Benchmarks, measure(c))
	}

	tr := trajectory{}
	if *outPath != "-" {
		var err error
		if tr, err = loadTrajectory(*outPath); err != nil {
			fatal(err)
		}
	}
	tr.Series = append(tr.Series, e)

	data, err := json.MarshalIndent(tr, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if *outPath == "-" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*outPath, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "appended entry %q to %s (%d entries)\n", e.Label, *outPath, len(tr.Series))
}

// stopCPUProfile, when profiling, flushes and closes the CPU profile;
// fatal runs it so a failed regression gate still leaves the artifact.
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
			fmt.Fprintln(os.Stderr, "bench:", err)
			return
		}
		defer f.Close()
		runtime.GC() // up-to-date heap statistics
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
		}
	}
}

func fatal(err error) {
	if stopCPUProfile != nil {
		stopCPUProfile()
		stopCPUProfile = nil
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
