package sweep

// Tests for the sharding primitives (PartitionByKey lives under
// internal/sweepd's end-to-end tests too) and the crash-safety store
// additions: Sync/SyncEvery and RunContext's abort drain.

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

// TestStoreSync pins the durability knobs: Sync succeeds on a live
// store, SyncEvery survives a stretch of Puts, and records written
// under periodic fsync reload intact.
func TestStoreSync(t *testing.T) {
	jobs, err := testSpec().Jobs()
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/results.jsonl"
	store, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	store.SyncEvery(2)
	for _, j := range jobs {
		if err := store.Put(Record{Key: j.Key(), Job: j}); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	again, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if again.Len() != len(jobs) {
		t.Fatalf("reloaded %d records, want %d", again.Len(), len(jobs))
	}
}

// TestRunContextAbort cancels a sweep mid-flight: Run returns a
// context error, in-flight jobs drain (their outcomes are real), the
// never-started remainder is marked with the context's error, and the
// run-log's sweep_end carries aborted:true.
func TestRunContextAbort(t *testing.T) {
	jobs, err := testSpec().Jobs()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var fired atomic.Bool
	var logBuf strings.Builder
	opts := Options{
		Workers: 1, // serial: cancel after the first job leaves the rest unfed
		RunLog:  obs.NewRunLog(&logBuf),
		Progress: func(done, total int, out Outcome) {
			if fired.CompareAndSwap(false, true) {
				cancel()
			}
		},
	}
	outs, err := RunContext(ctx, jobs, opts)
	if err == nil || ctx.Err() == nil {
		t.Fatalf("aborted run returned err=%v", err)
	}
	ran, abandoned := 0, 0
	for _, o := range outs {
		switch {
		case o.Err == nil && o.Worker >= 0:
			ran++
		case o.Err != nil && o.Worker == -1:
			abandoned++
		default:
			t.Fatalf("outcome neither ran nor abandoned: %+v", o)
		}
	}
	if ran == 0 || abandoned == 0 || ran+abandoned != len(jobs) {
		t.Fatalf("ran %d, abandoned %d of %d", ran, abandoned, len(jobs))
	}
	events, err := obs.ReadRunLog(strings.NewReader(logBuf.String()))
	if err != nil {
		t.Fatal(err)
	}
	last := events[len(events)-1]
	if last.Event != "sweep_end" {
		t.Fatalf("last event = %v, want sweep_end", last.Event)
	}
	if last.Fields["aborted"] != true {
		t.Fatalf("sweep_end fields = %v, want aborted:true", last.Fields)
	}
	if got := int(last.Fields["abandoned"].(float64)); got != abandoned {
		t.Fatalf("sweep_end abandoned = %d, counted %d", got, abandoned)
	}
}
