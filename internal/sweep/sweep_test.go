package sweep

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/hgraph"
)

func testSpec() Spec {
	return Spec{
		Name:        "test",
		Sizes:       []int{64, 128},
		Deltas:      []float64{0, 0.75},
		Adversaries: []string{"none", "inflate"},
		Trials:      2,
		Seed:        7,
	}
}

func TestSpecExpansion(t *testing.T) {
	jobs, err := testSpec().Jobs()
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * 2 * 2 * 2 // sizes × deltas × adversaries × trials
	if len(jobs) != want {
		t.Fatalf("expanded %d jobs, want %d", len(jobs), want)
	}
	for i, j := range jobs {
		if j.Index != i {
			t.Fatalf("job %d has Index %d", i, j.Index)
		}
		if j.Delta > 0 && j.ByzCount == 0 {
			t.Fatalf("job %d: delta %v but no Byzantine budget", i, j.Delta)
		}
		if j.Delta == 0 && j.ByzCount != 0 {
			t.Fatalf("job %d: no delta but ByzCount %d", i, j.ByzCount)
		}
	}
	// Trials of one cell share a Group; distinct cells don't.
	groups := map[int]int{}
	for _, j := range jobs {
		groups[j.Group]++
	}
	if len(groups) != want/2 {
		t.Fatalf("got %d groups, want %d", len(groups), want/2)
	}
	for g, count := range groups {
		if count != 2 {
			t.Fatalf("group %d has %d jobs, want 2 trials", g, count)
		}
	}
}

func TestSpecExpansionDeterministic(t *testing.T) {
	a, _ := testSpec().Jobs()
	b, _ := testSpec().Jobs()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same spec expanded to different jobs")
	}
}

func TestSpecNetworkSeedSharing(t *testing.T) {
	jobs, _ := testSpec().Jobs()
	// Cells differing only in delta/adversary share the topology per
	// (size, trial) — that's what earns the network cache its hits.
	byNet := map[hgraph.Params]int{}
	for _, j := range jobs {
		byNet[j.Net.Canonical()]++
	}
	// 2 sizes × 2 trials distinct topologies, each shared by 4 cells.
	if len(byNet) != 4 {
		t.Fatalf("distinct topologies = %d, want 4", len(byNet))
	}
}

func TestSpecValidate(t *testing.T) {
	bad := []Spec{
		{},                                       // no sizes
		{Sizes: []int{64}, Deltas: []float64{2}}, // delta out of range
		{Sizes: []int{64}, Adversaries: []string{"nope"}},
		{Sizes: []int{64}, Placements: []string{"nope"}},
		{Sizes: []int{64}, Algorithms: []string{"nope"}},
		{Sizes: []int{64}, ChurnFracs: []float64{1}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d validated unexpectedly", i)
		}
	}
	if err := testSpec().Validate(); err != nil {
		t.Fatalf("good spec rejected: %v", err)
	}
}

func TestJobKeyContentAddressing(t *testing.T) {
	j := Job{Net: hgraph.Params{N: 64, D: 8, Seed: 1}, RunSeed: 2}
	same := j
	same.Group, same.Index, same.Spec = 99, 99, "renamed"
	if j.Key() != same.Key() {
		t.Fatal("grid position changed the content key")
	}
	// Spellable defaults normalize.
	named := j
	named.Adversary, named.Placement = "none", "random"
	if j.Key() != named.Key() {
		t.Fatal("default spellings changed the content key")
	}
	// K defaulting normalizes.
	explicitK := j
	explicitK.Net.K = hgraph.DefaultK(8)
	if j.Key() != explicitK.Key() {
		t.Fatal("canonical K changed the content key")
	}
	// Delta is informational (ByzCount executes); it must not split keys.
	withDelta := j
	withDelta.Delta = 0.75
	if j.Key() != withDelta.Key() {
		t.Fatal("informational Delta changed the content key")
	}
	// Real differences do change it.
	diff := j
	diff.RunSeed++
	if j.Key() == diff.Key() {
		t.Fatal("different jobs share a key")
	}
}

func TestNetCacheReuseAndSingleFlight(t *testing.T) {
	c := NewNetCache(4)
	p := hgraph.Params{N: 64, D: 8, Seed: 3}
	var wg sync.WaitGroup
	nets := make([]*hgraph.Network, 8)
	for i := range nets {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			net, err := c.Get(p)
			if err != nil {
				t.Error(err)
			}
			nets[i] = net
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(nets); i++ {
		if nets[i] != nets[0] {
			t.Fatal("cache returned distinct instances for one Params")
		}
	}
	hits, misses := c.Stats()
	if misses != 1 {
		t.Fatalf("misses = %d, want 1 (single-flight)", misses)
	}
	if hits != 7 {
		t.Fatalf("hits = %d, want 7", hits)
	}
}

func TestNetCacheEviction(t *testing.T) {
	c := NewNetCache(2)
	for seed := uint64(0); seed < 3; seed++ {
		if _, err := c.Get(hgraph.Params{N: 64, D: 8, Seed: seed}); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("cache len = %d, want 2 after eviction", c.Len())
	}
	// Seed 0 was evicted (LRU): fetching it again is a miss.
	_, misses0 := c.Stats()
	if _, err := c.Get(hgraph.Params{N: 64, D: 8, Seed: 0}); err != nil {
		t.Fatal(err)
	}
	if _, misses := c.Stats(); misses != misses0+1 {
		t.Fatal("evicted entry was not regenerated")
	}
}

func TestStoreRoundTripAndResume(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "results.jsonl")

	spec := Spec{Name: "resume", Sizes: []int{64}, Adversaries: []string{"none", "inflate"}, Trials: 2, Seed: 5, Deltas: []float64{0.75}}
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}

	// First pass: run only half the jobs, as if interrupted.
	store, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	half := jobs[:len(jobs)/2]
	firstOuts, err := Run(half, Options{Workers: 2, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	store.Close()

	// Second pass over the FULL grid must skip exactly the completed half.
	store2, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	if store2.Len() != len(half) {
		t.Fatalf("store reloaded %d records, want %d", store2.Len(), len(half))
	}
	outs, err := Run(jobs, Options{Workers: 2, Store: store2})
	if err != nil {
		t.Fatal(err)
	}
	skipped := 0
	for i, o := range outs {
		if o.FromStore {
			skipped++
			// The resumed summary must match the original run exactly.
			// (DeepEqual: Summary grew a slice field with occupancy.)
			if i < len(firstOuts) && !reflect.DeepEqual(o.Summary, firstOuts[i].Summary) {
				t.Fatalf("job %d: resumed summary differs from original", i)
			}
		}
	}
	if skipped != len(half) {
		t.Fatalf("resumed %d jobs, want %d", skipped, len(half))
	}
}

func TestStoreRepairsPartialTrailingLine(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "results.jsonl")
	store, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := Record{Key: "abc", Job: Job{Net: hgraph.Params{N: 64, D: 8}}}
	if err := store.Put(rec); err != nil {
		t.Fatal(err)
	}
	store.Close()

	// Simulate a process killed mid-append.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"key":"truncat`)
	f.Close()

	store2, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	if store2.Len() != 1 {
		t.Fatalf("store len = %d, want 1 (partial line dropped)", store2.Len())
	}
	if _, ok := store2.Lookup("abc"); !ok {
		t.Fatal("intact record lost during repair")
	}
	// Appending after repair must still produce parseable lines.
	if err := store2.Put(Record{Key: "def"}); err != nil {
		t.Fatal(err)
	}
	store2.Close()
	store3, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer store3.Close()
	if store3.Len() != 2 {
		t.Fatalf("store len = %d, want 2 after repaired append", store3.Len())
	}
}

func TestStoreSkipsCorruptInteriorLineKeepingSuffix(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "results.jsonl")
	store, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	store.Put(Record{Key: "before"})
	store.Close()

	// Interleaved garbage mid-file (e.g. two writers racing).
	f, _ := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	f.WriteString("{\"key\":\"gar{\"key\":\"bled\"}\n")
	f.Close()

	store2, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	store2.Put(Record{Key: "after"})
	store2.Close()

	store3, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer store3.Close()
	// Records on both sides of the corruption must survive.
	for _, key := range []string{"before", "after"} {
		if _, ok := store3.Lookup(key); !ok {
			t.Fatalf("record %q lost around corrupt interior line", key)
		}
	}
	if store3.Len() != 2 {
		t.Fatalf("store len = %d, want 2", store3.Len())
	}
}

func TestRunKeepResults(t *testing.T) {
	spec := Spec{Sizes: []int{64}, Deltas: []float64{0.75}, Adversaries: []string{"inflate"}, Trials: 1, Seed: 9}
	jobs, _ := spec.Jobs()
	outs, err := Run(jobs, Options{Workers: 2, KeepResults: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outs {
		if o.Result == nil || o.Net == nil || o.Byz == nil {
			t.Fatalf("outcome %d missing retained state", i)
		}
	}
}

type roundCounter struct{ rounds int }

func (o *roundCounter) RoundEnd(*core.World) { o.rounds++ }

func TestRunObserverRoundTrip(t *testing.T) {
	spec := Spec{Sizes: []int{64}, Trials: 1, Seed: 11}
	jobs, _ := spec.Jobs()
	outs, err := Run(jobs, Options{
		KeepResults: true,
		Observer:    func(Job) core.Observer { return &roundCounter{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	obs, ok := outs[0].Observer.(*roundCounter)
	if !ok {
		t.Fatal("observer instance not returned on outcome")
	}
	if obs.rounds == 0 {
		t.Fatal("observer saw no rounds")
	}
}

func TestRunUnknownAdversaryFails(t *testing.T) {
	jobs := []Job{{Net: hgraph.Params{N: 64, D: 8, Seed: 1}, Adversary: "nope"}}
	if _, err := Run(jobs, Options{}); err == nil || !strings.Contains(err.Error(), "adversary") {
		t.Fatalf("want adversary error, got %v", err)
	}
}

func TestAggregateGroupsInExpansionOrder(t *testing.T) {
	spec := testSpec()
	jobs, _ := spec.Jobs()
	outs, err := Run(jobs, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	groups := Aggregate(outs)
	if len(groups) != len(jobs)/spec.Trials {
		t.Fatalf("groups = %d, want %d", len(groups), len(jobs)/spec.Trials)
	}
	for i := 1; i < len(groups); i++ {
		if groups[i-1].Job.Group >= groups[i].Job.Group {
			t.Fatal("groups out of expansion order")
		}
	}
	for _, g := range groups {
		if g.Agg.Trials != spec.Trials {
			t.Fatalf("group aggregated %d trials, want %d", g.Agg.Trials, spec.Trials)
		}
	}
	md := Markdown("t", groups)
	if !strings.Contains(md, "| n | d |") {
		t.Fatal("markdown missing header")
	}
	csv := CSV(groups)
	if len(strings.Split(strings.TrimSpace(csv), "\n")) != len(groups)+1 {
		t.Fatal("csv row count mismatch")
	}
}

func TestRendererFormats(t *testing.T) {
	jobs, _ := testSpec().Jobs()
	outs, err := Run(jobs, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	groups := Aggregate(outs)
	for _, tc := range []struct {
		format string
		want   string // "" expects an error naming the format
	}{
		{"md", Markdown("t", groups)},
		{"csv", CSV(groups)},
		{"xml", ""},
	} {
		render, err := Renderer(tc.format)
		if tc.want == "" {
			if err == nil || !strings.Contains(err.Error(), `"xml"`) {
				t.Fatalf("Renderer(%q) error = %v, want one naming the format", tc.format, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("Renderer(%q): %v", tc.format, err)
		}
		if got := render("t", groups); got != tc.want {
			t.Fatalf("Renderer(%q) rendered:\n%s\nwant:\n%s", tc.format, got, tc.want)
		}
	}
}
