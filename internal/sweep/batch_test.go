package sweep

import (
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestResolveBatch pins the REPRO_BATCH selector vocabulary.
func TestResolveBatch(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int
		err  bool
	}{
		{in: "", want: 1},
		{in: "off", want: 1},
		{in: "0", want: 1},
		{in: "on", want: DefaultBatchLanes},
		{in: "auto", want: DefaultBatchLanes},
		{in: "1", want: 1},
		{in: "8", want: 8},
		{in: "64", want: 64},
		{in: "999", want: 64}, // clamped to core.MaxBatchLanes
		{in: "-3", err: true},
		{in: "wide", err: true},
	} {
		got, err := ResolveBatch(tc.in)
		if tc.err {
			if err == nil {
				t.Errorf("ResolveBatch(%q) = %d, want error", tc.in, got)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("ResolveBatch(%q) = %d, %v, want %d", tc.in, got, err, tc.want)
		}
	}
}

// batchTestSpec is a small grid whose cells share topologies across
// adversary/delta/loss axes (the batching surface) with trials for ragged
// chunks, under both algorithms: the basic jobs form lanes, the
// Byzantine ones stay scalar.
func batchTestSpec() Spec {
	return Spec{
		Name:        "batch",
		Sizes:       []int{64, 96},
		Deltas:      []float64{0, 0.75},
		Adversaries: []string{"none", "inflate", "suppress"},
		Algorithms:  []string{"basic", "byzantine"},
		LossProbs:   []float64{0, 0.05},
		Trials:      3,
		Seed:        41,
	}
}

// basicJobs counts the jobs eligible for lanes.
func basicJobs(jobs []Job) int {
	k := 0
	for _, j := range jobs {
		if j.Algorithm == core.AlgorithmBasic {
			k++
		}
	}
	return k
}

// TestSweepBatchedMatchesScalar is the scheduler-level equivalence guard:
// the same grid run scalar and batched (at several widths, exercising
// ragged final chunks and single-lane groups) must produce identical
// Summaries job for job — batching is scheduling, not semantics.
func TestSweepBatchedMatchesScalar(t *testing.T) {
	jobs, err := batchTestSpec().Jobs()
	if err != nil {
		t.Fatal(err)
	}
	scalar, err := Run(jobs, Options{Workers: 2, RunWorkers: 1, Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, width := range []int{2, 4, 16} {
		batched, err := Run(jobs, Options{Workers: 2, RunWorkers: 1, Batch: width})
		if err != nil {
			t.Fatal(err)
		}
		sawBatched := false
		for i := range jobs {
			if !reflect.DeepEqual(scalar[i].Summary, batched[i].Summary) {
				t.Fatalf("width %d job %d (%s): summaries diverge:\nscalar  %+v\nbatched %+v",
					width, i, jobs[i].Label(), scalar[i].Summary, batched[i].Summary)
			}
			if batched[i].BatchLanes > width {
				t.Fatalf("width %d job %d: ran with %d lanes", width, i, batched[i].BatchLanes)
			}
			if jobs[i].Algorithm == core.AlgorithmByzantine && batched[i].BatchLanes != 1 {
				t.Fatalf("width %d job %d (%s): Byzantine job ran with %d lanes, want the scalar engine",
					width, i, jobs[i].Label(), batched[i].BatchLanes)
			}
			if batched[i].BatchLanes > 1 {
				sawBatched = true
			}
		}
		if !sawBatched {
			t.Fatalf("width %d: no job ran batched — the grouping is vacuous", width)
		}
	}
}

// TestSweepBatchedStoreInterchangeable checks resume across modes: a
// store written by a batched sweep satisfies a scalar sweep of the same
// grid without running anything, and vice versa — content keys and
// Summaries are mode-invariant.
func TestSweepBatchedStoreInterchangeable(t *testing.T) {
	jobs, err := batchTestSpec().Jobs()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, first := range []struct {
		name          string
		batch, resume int
	}{
		{name: "batched-then-scalar", batch: 8, resume: 1},
		{name: "scalar-then-batched", batch: 1, resume: 8},
	} {
		t.Run(first.name, func(t *testing.T) {
			store, err := OpenStore(filepath.Join(dir, first.name+".jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			ran, err := Run(jobs, Options{Workers: 2, RunWorkers: 1, Batch: first.batch, Store: store})
			if err != nil {
				t.Fatal(err)
			}
			resumed, err := Run(jobs, Options{Workers: 2, RunWorkers: 1, Batch: first.resume, Store: store})
			if err != nil {
				t.Fatal(err)
			}
			for i := range jobs {
				if !resumed[i].FromStore {
					t.Fatalf("job %d (%s) re-ran on resume", i, jobs[i].Label())
				}
				if !reflect.DeepEqual(ran[i].Summary, resumed[i].Summary) {
					t.Fatalf("job %d: stored summary diverges", i)
				}
			}
		})
	}
}

// TestBatchPlanGroups pins the grouping rules: only basic-algorithm jobs
// sharing (canonical Net, Epsilon, MaxPhase) share an invocation,
// occupancy-recording and Byzantine jobs stay scalar, and chunks respect
// the width.
func TestBatchPlanGroups(t *testing.T) {
	jobs, err := batchTestSpec().Jobs()
	if err != nil {
		t.Fatal(err)
	}
	jobs[3].RecordOccupancy = true
	pending := make([]int, len(jobs))
	for i := range pending {
		pending[i] = i
	}
	items := batchPlan(jobs, pending, Options{Batch: 4})
	seen := make(map[int]bool)
	for _, item := range items {
		if len(item) > 4 {
			t.Fatalf("item wider than the configured width: %v", item)
		}
		j0 := jobs[item[0]]
		for _, i := range item {
			if seen[i] {
				t.Fatalf("job %d scheduled twice", i)
			}
			seen[i] = true
			j := jobs[i]
			if len(item) > 1 && j.RecordOccupancy {
				t.Fatalf("occupancy-recording job %d batched", i)
			}
			if len(item) > 1 && j.Algorithm != core.AlgorithmBasic {
				t.Fatalf("Byzantine job %d batched", i)
			}
			if j.Net.Canonical() != j0.Net.Canonical() || j.Algorithm != j0.Algorithm ||
				j.Epsilon != j0.Epsilon || j.MaxPhase != j0.MaxPhase {
				t.Fatalf("incompatible jobs grouped: %d vs %d", item[0], i)
			}
		}
	}
	if len(seen) != len(jobs) {
		t.Fatalf("plan covers %d of %d jobs", len(seen), len(jobs))
	}
	// Width 1 must degenerate to singletons in pending order.
	for k, item := range batchPlan(jobs, pending, Options{Batch: 1}) {
		if len(item) != 1 || item[0] != pending[k] {
			t.Fatalf("scalar plan reordered or grouped: item %d = %v", k, item)
		}
	}
}

// TestSweepBatchTelemetry checks the obs fold: a batched sweep reports
// its lane and invocation counts through the registry, and the monitor
// surfaces the mean lane width.
func TestSweepBatchTelemetry(t *testing.T) {
	jobs, err := batchTestSpec().Jobs()
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	mon := NewMonitor("batch", len(jobs), nil, reg)
	_, err = Run(jobs, Options{
		Workers: 2, RunWorkers: 1, Batch: 8, Telemetry: reg,
		Progress: mon.Observe,
	})
	if err != nil {
		t.Fatal(err)
	}
	lanes := reg.Counter("core.batch.lanes").Load()
	invs := reg.Counter("core.batch.invocations").Load()
	if invs == 0 || lanes <= invs {
		t.Fatalf("batch telemetry: lanes=%d invocations=%d, want multi-lane invocations", lanes, invs)
	}
	basic := basicJobs(jobs)
	if lanes != int64(basic) {
		t.Fatalf("lanes=%d, want every basic job (%d) batched in this grid", lanes, basic)
	}
	st := mon.Status()
	if st.BatchedJobs != basic {
		t.Fatalf("status batched_jobs=%d, want %d", st.BatchedJobs, basic)
	}
	want := float64(lanes) / float64(invs)
	if st.BatchMeanLanes < want-0.01 || st.BatchMeanLanes > want+0.01 {
		t.Fatalf("status batch_mean_lanes=%.2f, want %.2f", st.BatchMeanLanes, want)
	}
}
