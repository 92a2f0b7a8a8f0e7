package sweepd

// The package's one invariant, tested end to end: a sharded fleet's
// aggregates are byte-identical to a single-process sweep of the same
// grid — for any shard count, any worker count, and across a worker
// death mid-shard (with the dead worker's partial results deduplicated,
// not recomputed into divergence). The coordinator runs over
// net/http/httptest; workers are real Worker loops; the dead worker is
// simulated by hand so the test controls exactly what it reported
// before "dying", and lease expiry rides the injected clock.

import (
	"context"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/graphio"
	"repro/internal/hgraph"
	"repro/internal/obs"
	"repro/internal/sweep"
)

func testJobs(t *testing.T) []sweep.Job {
	t.Helper()
	spec := sweep.Spec{
		Name:        "dist",
		Sizes:       []int{64, 128},
		Deltas:      []float64{0, 0.75},
		Adversaries: []string{"none", "inflate"},
		Trials:      2,
		Seed:        7,
	}
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// baseline runs the grid single-process and returns its outcomes and
// rendered aggregates — the byte-identity reference.
func baseline(t *testing.T, jobs []sweep.Job) ([]sweep.Outcome, string) {
	t.Helper()
	outs, err := sweep.Run(jobs, sweep.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	return outs, sweep.Markdown("Sweep dist", sweep.Aggregate(outs))
}

// runFleet drives a coordinator over httptest with n concurrent workers
// until the sweep completes, and returns the coordinator for
// inspection.
func runFleet(t *testing.T, coord *Coordinator, workers int) {
	t.Helper()
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		w := NewWorker(WorkerOptions{
			Coordinator: srv.URL,
			Name:        string(rune('a' + i)),
			Opts:        sweep.Options{Workers: 2},
			Poll:        20 * time.Millisecond,
		})
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = w.Run(ctx)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if !coord.Finished() {
		t.Fatal("fleet drained but coordinator not finished")
	}
}

// TestShardedAggregatesByteIdentical is the headline invariance matrix:
// shard counts 1, 2, 4 × worker counts 1, 2 all reproduce the
// single-process aggregates byte for byte, and every per-job Summary
// matches exactly.
func TestShardedAggregatesByteIdentical(t *testing.T) {
	jobs := testJobs(t)
	baseOuts, baseMD := baseline(t, jobs)

	for _, tc := range []struct{ shards, workers int }{
		{1, 1}, {2, 2}, {4, 2},
	} {
		store, err := sweep.OpenStore(t.TempDir() + "/results.jsonl")
		if err != nil {
			t.Fatal(err)
		}
		coord, err := NewCoordinator(jobs, Config{
			Name:      "dist",
			Store:     store,
			Shards:    tc.shards,
			LeaseTTL:  time.Minute,
			Telemetry: obs.NewRegistry(),
		})
		if err != nil {
			t.Fatal(err)
		}
		runFleet(t, coord, tc.workers)

		outs := coord.Outcomes()
		if md := sweep.Markdown("Sweep dist", sweep.Aggregate(outs)); md != baseMD {
			t.Fatalf("shards=%d workers=%d: aggregates diverged from single-process run:\n%s\nvs\n%s",
				tc.shards, tc.workers, md, baseMD)
		}
		for i := range outs {
			if !reflect.DeepEqual(outs[i].Summary, baseOuts[i].Summary) {
				t.Fatalf("shards=%d workers=%d: job %d summary diverged", tc.shards, tc.workers, i)
			}
		}
		if n := store.Len(); n != len(jobs) {
			t.Fatalf("shards=%d workers=%d: store holds %d records, want %d", tc.shards, tc.workers, n, len(jobs))
		}
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWorkerDeathMidShard kills a worker after it reported part of a
// shard: the lease expires (fake clock), the shard reassigns, the
// replacements recompute only the unreported jobs, the dead worker's
// re-sent records count as duplicates — and the aggregates still match
// the single-process run byte for byte.
func TestWorkerDeathMidShard(t *testing.T) {
	jobs := testJobs(t)
	baseOuts, baseMD := baseline(t, jobs)

	clk := newFakeClock()
	reg := obs.NewRegistry()
	store, err := sweep.OpenStore(t.TempDir() + "/results.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	ttl := time.Minute
	coord, err := NewCoordinator(jobs, Config{
		Name:      "dist",
		Store:     store,
		Shards:    4,
		LeaseTTL:  ttl,
		Telemetry: reg,
		clock:     clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}

	// The doomed worker claims a shard, computes and reports exactly one
	// job, re-sends the same report (a retry after a flaky ack), then
	// goes silent forever.
	resp := coord.claim("doomed")
	if resp.Shard == nil {
		t.Fatal("doomed worker got no shard")
	}
	shard := resp.Shard
	firstJob := shard.Jobs[0]
	partial, err := sweep.Run([]sweep.Job{firstJob}, sweep.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	report := ReportRequest{
		Worker: "doomed", Shard: shard.ID, Lease: shard.Lease,
		Records: []sweep.Record{{
			Key: firstJob.Key(), Job: firstJob, Summary: partial[0].Summary,
		}},
	}
	if rr, err := coord.report(report); err != nil || rr.Accepted != 1 {
		t.Fatalf("first report = (%+v, %v), want 1 accepted", rr, err)
	}
	if rr, err := coord.report(report); err != nil || rr.Duplicates != 1 {
		t.Fatalf("duplicate report = (%+v, %v), want 1 duplicate", rr, err)
	}

	// Death: no heartbeats past the TTL. The survivors' clocks are the
	// same fake — static from here on, so their own leases never lapse.
	clk.Advance(ttl + time.Second)

	runFleet(t, coord, 2)

	outs := coord.Outcomes()
	if md := sweep.Markdown("Sweep dist", sweep.Aggregate(outs)); md != baseMD {
		t.Fatalf("aggregates diverged after worker death:\n%s\nvs\n%s", md, baseMD)
	}
	for i := range outs {
		if !reflect.DeepEqual(outs[i].Summary, baseOuts[i].Summary) {
			t.Fatalf("job %d summary diverged after worker death", i)
		}
	}
	if n := store.Len(); n != len(jobs) {
		t.Fatalf("store holds %d records, want %d (no duplicate appends)", n, len(jobs))
	}

	snap := reg.Snapshot()
	if snap.Counters["sweepd.shards.reassigned"] < 1 {
		t.Fatalf("no reassignment recorded: %+v", snap.Counters)
	}
	if snap.Counters["sweepd.records.duplicate"] < 1 {
		t.Fatalf("no duplicate recorded: %+v", snap.Counters)
	}
	st := coord.Status()
	if st.Shards.Completed != st.Shards.Total {
		t.Fatalf("shard tally = %+v, want all completed", st.Shards)
	}
}

// TestCoordinatorResume re-opens a completed sweep's store: every job
// resolves as a store hit, the coordinator is born finished, no worker
// ever runs, and the aggregates still match byte for byte.
func TestCoordinatorResume(t *testing.T) {
	jobs := testJobs(t)
	_, baseMD := baseline(t, jobs)

	dir := t.TempDir()
	store, err := sweep.OpenStore(dir + "/results.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(jobs, Config{
		Name: "dist", Store: store, Shards: 2, Telemetry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	runFleet(t, coord, 1)
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store2, err := sweep.OpenStore(dir + "/results.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	coord2, err := NewCoordinator(jobs, Config{
		Name: "dist", Store: store2, Shards: 2, Telemetry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-coord2.Done():
	default:
		t.Fatal("fully resumed coordinator not born finished")
	}
	outs := coord2.Outcomes()
	for i, o := range outs {
		if !o.FromStore {
			t.Fatalf("job %d not resumed from store", i)
		}
	}
	if md := sweep.Markdown("Sweep dist", sweep.Aggregate(outs)); md != baseMD {
		t.Fatal("resumed aggregates diverged")
	}
}

// TestWorkerKeepsOneCache: a worker built with a nil Opts.Cache keeps
// one network cache across every shard it runs, bound to its telemetry
// registry, so it generates each topology once however the shards cut
// the topologies' jobs.
func TestWorkerKeepsOneCache(t *testing.T) {
	t.Setenv("REPRO_NETSTORE", "") // memory tier only: every miss generates
	jobs := testJobs(t)
	store, err := sweep.OpenStore(t.TempDir() + "/results.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	coord, err := NewCoordinator(jobs, Config{
		Name: "dist", Store: store, Shards: 8, LeaseTTL: time.Minute,
		Telemetry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	reg := obs.NewRegistry()
	w := NewWorker(WorkerOptions{
		Coordinator: srv.URL,
		Name:        "solo",
		Opts:        sweep.Options{Workers: 2, Telemetry: reg},
		Poll:        20 * time.Millisecond,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := w.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if n := w.ShardsCompleted(); n < 2 {
		t.Fatalf("worker completed %d shards, want at least 2", n)
	}
	topos := map[hgraph.Params]bool{}
	for _, j := range jobs {
		topos[j.Net.Canonical()] = true
	}
	if got := reg.Timer("hgraph.gen").Count(); got != int64(len(topos)) {
		t.Fatalf("worker generated %d topologies for %d distinct ones", got, len(topos))
	}
}

// TestPartitionByKey pins the shard geometry the coordinator serves:
// deterministic, covering every pending job once in shards whose sizes
// differ by at most one,
// expansion order inside a shard, and each topology inside one shard
// unless a cut falls in its jobs — at most shards−1 of them straddle,
// each over consecutive shards, and shard boundaries follow the
// topology content-key order.
func TestPartitionByKey(t *testing.T) {
	grid := func(trials int, advs ...string) []sweep.Job {
		t.Helper()
		jobs, err := sweep.Spec{
			Name: "part", Sizes: []int{64, 128}, Deltas: []float64{0.75},
			Adversaries: advs, Trials: trials, Seed: 3,
		}.Jobs()
		if err != nil {
			t.Fatal(err)
		}
		return jobs
	}
	small := testJobs(t)
	wide := grid(9, "none", "inflate", "suppress", "oracle", "topology-liar")
	// A duplicated cell: two jobs with one content key, as a grid that
	// lists a value twice expands.
	dup := append(grid(3, "none", "inflate"), grid(1, "none")...)
	all := func(jobs []sweep.Job) []int {
		idx := make([]int, len(jobs))
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	keysOf := func(jobs []sweep.Job) []string {
		keys := make([]string, len(jobs))
		for i, j := range jobs {
			keys[i] = j.Key()
		}
		return keys
	}
	// A resumed coordinator partitions only what its store lacks.
	var resumed []int
	for i := range wide {
		if i%3 != 1 {
			resumed = append(resumed, i)
		}
	}
	for _, tc := range []struct {
		name    string
		jobs    []sweep.Job
		pending []int
		shards  []int
	}{
		{"small", small, all(small), []int{1, 3, 4, 100}},
		{"wide", wide, all(wide), []int{1, 2, 7, 8, 13}},
		{"resumed", wide, resumed, []int{3, 8}},
		{"duplicate-keys", dup, all(dup), []int{2, 5}},
	} {
		keys := keysOf(tc.jobs)
		for _, shards := range tc.shards {
			parts := sweep.PartitionByKey(tc.jobs, keys, tc.pending, shards)
			if again := sweep.PartitionByKey(tc.jobs, keys, tc.pending, shards); !reflect.DeepEqual(parts, again) {
				t.Fatalf("%s/%d: partition not deterministic", tc.name, shards)
			}
			want := min(shards, len(tc.pending))
			if len(parts) != want {
				t.Fatalf("%s/%d: %d shards, want %d", tc.name, shards, len(parts), want)
			}
			seen := map[int]bool{}
			spans := map[hgraph.Params][]int{} // topology -> shards holding it
			minSize, maxSize := len(tc.pending), 0
			for s, part := range parts {
				minSize, maxSize = min(minSize, len(part)), max(maxSize, len(part))
				for p, i := range part {
					if p > 0 && part[p-1] >= i {
						t.Fatalf("%s/%d: shard %d not in expansion order: %v", tc.name, shards, s, part)
					}
					if seen[i] {
						t.Fatalf("%s/%d: job %d in two shards", tc.name, shards, i)
					}
					seen[i] = true
					net := tc.jobs[i].Net.Canonical()
					if sp := spans[net]; len(sp) == 0 || sp[len(sp)-1] != s {
						spans[net] = append(sp, s)
					}
				}
			}
			if len(seen) != len(tc.pending) {
				t.Fatalf("%s/%d: %d of %d pending jobs covered", tc.name, shards, len(seen), len(tc.pending))
			}
			if maxSize-minSize > 1 {
				t.Fatalf("%s/%d: shard sizes %d..%d differ by more than one", tc.name, shards, minSize, maxSize)
			}
			straddles := 0
			for net, sp := range spans {
				if sp[len(sp)-1]-sp[0] != len(sp)-1 {
					t.Fatalf("%s/%d: topology %+v in non-adjacent shards %v", tc.name, shards, net, sp)
				}
				straddles += len(sp) - 1
			}
			if straddles > len(parts)-1 {
				t.Fatalf("%s/%d: %d topology straddles over %d cuts", tc.name, shards, straddles, len(parts)-1)
			}
			// Boundaries follow the topology key order: no shard holds a
			// topology that sorts before one in an earlier shard.
			last := ""
			for s, part := range parts {
				lo, hi := "", ""
				for _, i := range part {
					k := graphio.NetKey(tc.jobs[i].Net)
					if lo == "" || k < lo {
						lo = k
					}
					hi = max(hi, k)
				}
				if lo < last {
					t.Fatalf("%s/%d: shard %d starts at topology %s, before shard %d's last %s", tc.name, shards, s, lo, s-1, last)
				}
				last = hi
			}
		}
	}
	// A shard count that divides the topologies evenly puts every
	// topology in one shard: 2 sizes × 9 trials = 18 topologies of 5
	// jobs each, 6 shards of 15 jobs.
	parts := sweep.PartitionByKey(wide, keysOf(wide), all(wide), 6)
	for s, part := range parts {
		topos := map[hgraph.Params]int{}
		for _, i := range part {
			topos[wide[i].Net.Canonical()]++
		}
		for net, c := range topos {
			if c != 5 {
				t.Fatalf("shard %d holds %d of topology %+v's 5 jobs", s, c, net)
			}
		}
	}
}
