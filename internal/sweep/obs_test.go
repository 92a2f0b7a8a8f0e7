package sweep

// obs_test.go covers the scheduler's observability surface: progress
// callback ordering under concurrency, stage-timing monotonicity,
// consistency between the cache's accessor stats and the obs registry,
// run-log event structure, jobs shed by Options.Drop, and the live
// Monitor/Status document. All of
// it must hold with full worker parallelism — telemetry that is only
// coherent single-threaded is not telemetry.

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/hgraph"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// TestProgressOrderingUnderConcurrency pins the Progress contract: the
// callback is serial (never two invocations at once), done increments
// by exactly one per call from 1 to total, and total never changes.
func TestProgressOrderingUnderConcurrency(t *testing.T) {
	jobs, err := testSpec().Jobs()
	if err != nil {
		t.Fatal(err)
	}
	var (
		inFlight atomic.Int32
		lastDone int
		calls    int
	)
	opts := Options{
		Workers:   8,
		Telemetry: obs.NewRegistry(),
		Progress: func(done, total int, out Outcome) {
			if inFlight.Add(1) != 1 {
				t.Error("Progress invoked concurrently")
			}
			defer inFlight.Add(-1)
			calls++
			if done != lastDone+1 {
				t.Errorf("done jumped %d -> %d", lastDone, done)
			}
			lastDone = done
			if total != len(jobs) {
				t.Errorf("total = %d, want %d", total, len(jobs))
			}
		},
	}
	if _, err := Run(jobs, opts); err != nil {
		t.Fatal(err)
	}
	if calls != len(jobs) {
		t.Fatalf("Progress called %d times, want %d", calls, len(jobs))
	}
}

// TestStageTimingMonotonicity pins the stage accounting invariants on
// every outcome of a concurrent sweep: stages are non-negative, a job
// that ran spent observable time running, creator-attributed generation
// and disk-load time happened inside the cache lookup that performed
// it, and the cache tier is one of the three named tiers.
func TestStageTimingMonotonicity(t *testing.T) {
	jobs, err := testSpec().Jobs()
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	outs, err := Run(jobs, Options{Workers: 4, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	creators := 0
	for i, o := range outs {
		s := o.Stages
		if s.CacheLookup < 0 || s.Generate < 0 || s.DiskLoad < 0 || s.Run < 0 || s.Aggregate < 0 {
			t.Fatalf("outcome %d: negative stage time %+v", i, s)
		}
		if s.Run == 0 {
			t.Fatalf("outcome %d ran but recorded zero run time", i)
		}
		if sub := s.Generate + s.DiskLoad; sub > s.CacheLookup {
			t.Fatalf("outcome %d: generate+disk_load %v exceeds the cache lookup %v that contained them", i, sub, s.CacheLookup)
		}
		switch o.CacheTier {
		case TierMem, TierDisk, TierGen:
		default:
			t.Fatalf("outcome %d: cache tier %q", i, o.CacheTier)
		}
		if o.Worker < 0 {
			t.Fatalf("outcome %d: worker %d", i, o.Worker)
		}
		if s.Generate > 0 || s.DiskLoad > 0 {
			creators++
		}
	}
	// Exactly one job per distinct topology paid the creation cost —
	// generation, or a disk load when an ambient REPRO_NETSTORE serves
	// it; everyone else hit memory or coalesced onto the creator.
	distinct := map[hgraph.Params]bool{}
	for _, j := range jobs {
		distinct[j.Net.Canonical()] = true
	}
	if creators != len(distinct) {
		t.Fatalf("%d jobs recorded creation time, want %d (one per distinct topology)", creators, len(distinct))
	}
	// The registry's stage timers saw the same jobs.
	snap := reg.Snapshot()
	if got := snap.Timers["sweep.stage.run"].Count; got != int64(len(jobs)) {
		t.Fatalf("registry run-stage count = %d, want %d", got, len(jobs))
	}
	gen := snap.Timers["sweep.stage.generate"].Count
	load := snap.Timers["sweep.stage.disk_load"].Count
	if gen+load < int64(creators) {
		t.Fatalf("registry creation-stage counts gen=%d load=%d, want ≥ %d", gen, load, creators)
	}
}

// TestCacheTelemetryConsistency pins that the obs registry's cache
// counters agree with the NetCache's own Stats/DiskStats accessors —
// the /status document and the legacy stderr summary must never tell
// different stories — across both a cold store-backed run and a warm
// second process serving disk hits.
func TestCacheTelemetryConsistency(t *testing.T) {
	root := t.TempDir()
	p := hgraph.Params{N: 64, D: 8, Seed: 3}

	check := func(c *NetCache, reg *obs.Registry) {
		t.Helper()
		hits, misses := c.Stats()
		diskHits, _ := c.DiskStats()
		snap := reg.Snapshot()
		if got := snap.Counters["sweep.cache.mem_hits"]; got != hits {
			t.Fatalf("registry mem_hits %d != Stats hits %d", got, hits)
		}
		if got := snap.Counters["sweep.cache.mem_misses"]; got != misses {
			t.Fatalf("registry mem_misses %d != Stats misses %d", got, misses)
		}
		if got := snap.Counters["sweep.cache.disk_hits"]; got != diskHits {
			t.Fatalf("registry disk_hits %d != DiskStats %d", got, diskHits)
		}
	}

	// Cold process: one generation, then memory hits.
	store, err := ResolveNetStore(root)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cache := NewNetCacheWithStore(0, store)
	cache.SetTelemetry(reg)
	for i := 0; i < 3; i++ {
		if _, err := cache.Get(p); err != nil {
			t.Fatal(err)
		}
	}
	check(cache, reg)
	if n := reg.Snapshot().Timers["hgraph.gen"].Count; n != 1 {
		t.Fatalf("generation timer count = %d, want 1", n)
	}

	// Warm process: the same params served from the disk tier.
	store2, err := ResolveNetStore(root)
	if err != nil {
		t.Fatal(err)
	}
	reg2 := obs.NewRegistry()
	cache2 := NewNetCacheWithStore(0, store2)
	cache2.SetTelemetry(reg2)
	if _, err := cache2.Get(p); err != nil {
		t.Fatal(err)
	}
	check(cache2, reg2)
	snap2 := reg2.Snapshot()
	if snap2.Counters["sweep.cache.disk_hits"] != 1 {
		t.Fatalf("warm lookup not served from disk: %+v", snap2.Counters)
	}
	if snap2.Timers["sweep.cache.disk_load"].Count != 1 {
		t.Fatalf("disk-load timer count = %d, want 1", snap2.Timers["sweep.cache.disk_load"].Count)
	}
	if snap2.Timers["hgraph.gen"].Count != 0 {
		t.Fatal("warm lookup regenerated instead of loading")
	}

	// Single-flight accounting stays coherent under concurrent demand:
	// misses count entry creations, hits + misses count lookups.
	reg3 := obs.NewRegistry()
	cache3 := NewNetCache(0)
	cache3.SetTelemetry(reg3)
	const callers = 8
	done := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func() {
			_, err := cache3.Get(hgraph.Params{N: 128, D: 8, Seed: 9})
			done <- err
		}()
	}
	for i := 0; i < callers; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	check(cache3, reg3)
	snap3 := reg3.Snapshot()
	if snap3.Counters["sweep.cache.mem_misses"] != 1 {
		t.Fatalf("single flight broke: %d creations", snap3.Counters["sweep.cache.mem_misses"])
	}
	if snap3.Counters["sweep.cache.mem_hits"] != callers-1 {
		t.Fatalf("hits = %d, want %d", snap3.Counters["sweep.cache.mem_hits"], callers-1)
	}
	if co := snap3.Counters["sweep.cache.coalesced"]; co < 0 || co > callers-1 {
		t.Fatalf("coalesced = %d out of range [0,%d]", co, callers-1)
	}
}

// TestDiskHealCounter pins the corruption-heal path: a truncated blob
// falls back to regeneration, the save repairs it, and the registry
// records exactly one heal.
func TestDiskHealCounter(t *testing.T) {
	root := t.TempDir()
	p := hgraph.Params{N: 64, D: 8, Seed: 4}
	store, err := ResolveNetStore(root)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewNetCacheWithStore(0, store)
	if _, err := cache.Get(p); err != nil {
		t.Fatal(err)
	}

	// Corrupt the blob, then demand it from a fresh cache.
	reg := obs.NewRegistry()
	cache2 := NewNetCacheWithStore(0, store)
	cache2.SetTelemetry(reg)
	if err := truncateBlob(t, root, p); err != nil {
		t.Fatal(err)
	}
	if _, err := cache2.Get(p); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap.Counters["sweep.cache.disk_heals"] != 1 {
		t.Fatalf("disk_heals = %d, want 1", snap.Counters["sweep.cache.disk_heals"])
	}
	if snap.Counters["sweep.cache.disk_hits"] != 0 {
		t.Fatal("corrupt blob counted as a disk hit")
	}

	// And the heal worked: a third cache now loads from disk cleanly.
	reg3 := obs.NewRegistry()
	cache3 := NewNetCacheWithStore(0, store)
	cache3.SetTelemetry(reg3)
	if _, err := cache3.Get(p); err != nil {
		t.Fatal(err)
	}
	if reg3.Snapshot().Counters["sweep.cache.disk_hits"] != 1 {
		t.Fatal("healed blob not served from disk")
	}
}

// TestRunLogLifecycle pins the run-log schema over a run-then-resume
// pair: starts and dones for every pending job with coherent worker
// ids and tiers, skips for every resumed job, and sweep bookends.
func TestRunLogLifecycle(t *testing.T) {
	jobs, err := testSpec().Jobs()
	if err != nil {
		t.Fatal(err)
	}
	storePath := t.TempDir() + "/results.jsonl"
	store, err := OpenStore(storePath)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	opts := Options{
		Workers:   4,
		Store:     store,
		Telemetry: obs.NewRegistry(),
		RunLog:    obs.NewRunLog(&buf),
	}
	if _, err := Run(jobs, opts); err != nil {
		t.Fatal(err)
	}
	store.Close()

	events, err := obs.ReadRunLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	count := map[string]int{}
	for _, e := range events {
		count[e.Event]++
	}
	if count["sweep_start"] != 1 || count["sweep_end"] != 1 {
		t.Fatalf("sweep bookends = %+v", count)
	}
	// The log must open with sweep_start and close with sweep_end — a
	// reader tailing the file keys its lifecycle off the first line.
	if len(events) == 0 || events[0].Event != "sweep_start" {
		t.Fatalf("first event = %v, want sweep_start", events[0].Event)
	}
	if last := events[len(events)-1].Event; last != "sweep_end" {
		t.Fatalf("last event = %v, want sweep_end", last)
	}
	if count["job_start"] != len(jobs) || count["job_done"] != len(jobs) {
		t.Fatalf("job events = %+v, want %d each", count, len(jobs))
	}
	if count["job_skip"] != 0 {
		t.Fatalf("cold run logged %d skips", count["job_skip"])
	}
	for _, e := range events {
		if e.Event != "job_done" {
			continue
		}
		if tier := e.Fields["tier"]; tier != TierMem && tier != TierGen && tier != TierDisk {
			t.Fatalf("job_done tier = %v", tier)
		}
		if w, ok := e.Fields["worker"].(float64); !ok || w < 0 || w >= 4 {
			t.Fatalf("job_done worker = %v", e.Fields["worker"])
		}
		if _, ok := e.Fields["stages"].(map[string]any); !ok {
			t.Fatalf("job_done stages = %v", e.Fields["stages"])
		}
	}

	// Resume: every job satisfied from the store, logged as skips.
	store2, err := OpenStore(storePath)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	var buf2 bytes.Buffer
	opts2 := Options{
		Workers:   4,
		Store:     store2,
		Telemetry: obs.NewRegistry(),
		RunLog:    obs.NewRunLog(&buf2),
	}
	if _, err := Run(jobs, opts2); err != nil {
		t.Fatal(err)
	}
	events2, err := obs.ReadRunLog(bytes.NewReader(buf2.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	count2 := map[string]int{}
	for _, e := range events2 {
		count2[e.Event]++
	}
	if count2["job_skip"] != len(jobs) || count2["job_start"] != 0 {
		t.Fatalf("resume events = %+v, want %d skips and no starts", count2, len(jobs))
	}
	// Regression: skips are resolved before the pool spins up, but they
	// must still be LOGGED after sweep_start — the runner buffers them.
	if events2[0].Event != "sweep_start" {
		t.Fatalf("resume log opens with %v, want sweep_start", events2[0].Event)
	}
	for i := 1; i <= len(jobs); i++ {
		if events2[i].Event != "job_skip" {
			t.Fatalf("resume event %d = %v, want job_skip", i, events2[i].Event)
		}
	}
}

// TestDropShedsJobs pins Options.Drop: a shed job gets a Dropped
// outcome with no error, no Summary and no store record, one job_drop
// event and no job_start; progress still fires once per job; and
// sweep_end's ran counts only the jobs that ran, agreeing with the
// Monitor, with the shed ones in its dropped field.
func TestDropShedsJobs(t *testing.T) {
	jobs, err := testSpec().Jobs()
	if err != nil {
		t.Fatal(err)
	}
	shed := map[string]bool{jobs[3].Key(): true, jobs[10].Key(): true}
	store, err := OpenStore(t.TempDir() + "/results.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	reg := obs.NewRegistry()
	mon := NewMonitor("test", len(jobs), nil, reg)
	progress := map[string]int{}
	var buf bytes.Buffer
	opts := Options{
		Workers:   4,
		Store:     store,
		Telemetry: reg,
		RunLog:    obs.NewRunLog(&buf),
		Drop:      func(j Job) bool { return shed[j.Key()] },
		Progress: func(done, total int, out Outcome) {
			mon.Observe(done, total, out)
			progress[out.Job.Key()]++
		},
	}
	outs, err := Run(jobs, opts)
	if err != nil {
		t.Fatal(err)
	}

	for i, o := range outs {
		key := jobs[i].Key()
		_, stored := store.Lookup(key)
		if o.Dropped != shed[key] {
			t.Fatalf("job %d: Dropped = %v, want %v", i, o.Dropped, shed[key])
		}
		if o.Err != nil {
			t.Fatalf("job %d: err %v", i, o.Err)
		}
		if o.Dropped && (!reflect.DeepEqual(o.Summary, metrics.Summary{}) || stored) {
			t.Fatalf("shed job %d: summary %+v, stored %v", i, o.Summary, stored)
		}
		if !o.Dropped && !stored {
			t.Fatalf("job %d ran but has no store record", i)
		}
		if progress[key] != 1 {
			t.Fatalf("job %d: progress fired %d times", i, progress[key])
		}
	}

	events, err := obs.ReadRunLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	drops, starts := map[string]int{}, map[string]int{}
	var end map[string]any
	for _, e := range events {
		switch e.Event {
		case "job_drop":
			drops[e.Fields["key"].(string)]++
		case "job_start":
			starts[e.Fields["key"].(string)]++
		case "sweep_end":
			end = e.Fields
		}
	}
	for key := range shed {
		if drops[key] != 1 || starts[key] != 0 {
			t.Fatalf("shed job %s: %d job_drop, %d job_start events", key, drops[key], starts[key])
		}
	}
	if len(drops) != len(shed) || len(starts) != len(jobs)-len(shed) {
		t.Fatalf("%d jobs dropped, %d started; want %d and %d", len(drops), len(starts), len(shed), len(jobs)-len(shed))
	}
	ran := mon.Status().Ran
	if ran != len(jobs)-len(shed) || end["ran"] != float64(ran) || end["dropped"] != float64(len(shed)) {
		t.Fatalf("sweep_end %v, Monitor ran %d; want ran %d, dropped %d", end, ran, len(jobs)-len(shed), len(shed))
	}
}

// TestMonitorStatus pins the live status document against the outcomes
// that fed it: progress counts, stage totals, tier tallies, cache and
// registry figures, and that the whole document is JSON-clean.
func TestMonitorStatus(t *testing.T) {
	jobs, err := testSpec().Jobs()
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cache := NewNetCache(0)
	cache.SetTelemetry(reg)
	mon := NewMonitor("test", len(jobs), cache, reg)
	mon.SetExpand(1) // nonzero so the expand row shows up with a share

	var outs []Outcome
	opts := Options{
		Workers:   4,
		Cache:     cache,
		Telemetry: reg,
		Progress: func(done, total int, out Outcome) {
			mon.Observe(done, total, out)
			outs = append(outs, out)
		},
	}
	if _, err := Run(jobs, opts); err != nil {
		t.Fatal(err)
	}

	s := mon.Status()
	if s.Done != len(jobs) || s.Total != len(jobs) || s.Ran != len(jobs) || s.Resumed != 0 || s.Errors != 0 {
		t.Fatalf("status progress = %+v", s)
	}
	if s.ETAMS != 0 {
		t.Fatalf("finished sweep has ETA %v", s.ETAMS)
	}
	if s.JobsPerSec <= 0 {
		t.Fatalf("jobs/sec = %v", s.JobsPerSec)
	}

	var wantStages StageTimes
	tiers := map[string]int{}
	for _, o := range outs {
		wantStages.add(o.Stages)
		tiers[o.CacheTier]++
	}
	byName := map[string]StageStat{}
	for _, st := range s.Stages {
		byName[st.Stage] = st
	}
	if got, want := byName["run"].TotalMS, float64(wantStages.Run.Microseconds())/1000; got != want {
		t.Fatalf("status run total %v != folded %v", got, want)
	}
	for tier, n := range tiers {
		if s.CacheTiers[tier] != n {
			t.Fatalf("status tier %q = %d, want %d", tier, s.CacheTiers[tier], n)
		}
	}
	if s.Cache == nil || s.Cache.MemHits+s.Cache.MemMisses == 0 {
		t.Fatalf("status cache = %+v", s.Cache)
	}
	hits, misses := cache.Stats()
	if s.Cache.MemHits != hits || s.Cache.MemMisses != misses {
		t.Fatalf("status cache %+v != Stats (%d, %d)", s.Cache, hits, misses)
	}
	if s.Telemetry.Counters["core.runs"] != int64(len(jobs)) {
		t.Fatalf("status telemetry core.runs = %d", s.Telemetry.Counters["core.runs"])
	}

	// The document must marshal (it is the /status wire format) and the
	// breakdown table must render every stage row.
	if _, err := json.Marshal(s); err != nil {
		t.Fatal(err)
	}
	table := mon.Breakdown()
	for _, stage := range []string{"expand", "cache_lookup", "generate", "disk_load", "run", "aggregate"} {
		if !bytes.Contains([]byte(table), []byte(stage)) {
			t.Fatalf("breakdown missing %q:\n%s", stage, table)
		}
	}
}

// truncateBlob corrupts the stored blob for p by cutting it in half.
func truncateBlob(t *testing.T, root string, p hgraph.Params) error {
	t.Helper()
	store, err := ResolveNetStore(root)
	if err != nil {
		return err
	}
	path := store.Path(p.Canonical())
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data[:len(data)/2], 0o644)
}
