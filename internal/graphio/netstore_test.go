package graphio

// netstore_test.go pins the store's two crash-safety contracts against
// injected faults: a save that dies mid-write never poisons a later
// read (the live name stays untouched and the temp file is cleaned up),
// and temp files orphaned by a killed process are swept on the next
// open — without yanking a live writer's in-flight temp.

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/hgraph"
)

// failingSaveFile denies every write with an injected ENOSPC-shaped
// error but forwards Close, so Save's cleanup path runs normally.
type failingSaveFile struct {
	f SaveFile
}

func (w failingSaveFile) Write(p []byte) (int, error) {
	return 0, chaos.ErrInjected
}

func (w failingSaveFile) Close() error { return w.f.Close() }

func countTemps(t *testing.T, dir string) int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			n++
		}
	}
	return n
}

// TestNetStoreFailedSaveNoPoison: a Save whose temp-file writes are all
// denied reports the fault, leaves no blob and no temp behind, and a
// subsequent clean Save → Load works — the failed attempt never poisons
// the key.
func TestNetStoreFailedSaveNoPoison(t *testing.T) {
	store, err := OpenNetStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := hgraph.Params{N: 32, D: 4, Seed: 3}
	net := hgraph.MustNew(p)

	store.SetSaveHook(func(f SaveFile) SaveFile { return failingSaveFile{f: f} })
	if err := store.Save(net, nil); !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("faulted Save = %v, want injected fault surfaced", err)
	}
	if store.Has(p) {
		t.Fatal("failed save left a blob under the live name")
	}
	if _, err := store.Load(p); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Load after failed save = %v, want ErrNotExist", err)
	}
	if n := countTemps(t, store.Dir()); n != 0 {
		t.Fatalf("failed save leaked %d temp file(s)", n)
	}

	// The key heals: a clean retry saves and loads normally.
	store.SetSaveHook(nil)
	if err := store.Save(net, nil); err != nil {
		t.Fatalf("clean Save after faulted one: %v", err)
	}
	loaded, err := store.Load(p)
	if err != nil {
		t.Fatalf("Load after heal: %v", err)
	}
	if loaded.Digest() != net.Digest() {
		t.Fatal("healed blob decodes to a different network")
	}
}

// TestNetStoreShortWriteNoPoison drives the same contract through the
// chaos DiskPlan's torn-write coin instead of a blanket denial: some
// bytes land in the temp file before the fault, which must still never
// reach the live name.
func TestNetStoreShortWriteNoPoison(t *testing.T) {
	store, err := OpenNetStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := hgraph.Params{N: 32, D: 4, Seed: 4}
	net := hgraph.MustNew(p)

	store.SetSaveHook(func(f SaveFile) SaveFile {
		return &chaos.FaultFile{F: saveOnlyFile{f}, Plan: chaos.DiskPlan{Seed: 11, TornWrite: 1}}
	})
	if err := store.Save(net, nil); !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("torn Save = %v, want injected fault surfaced", err)
	}
	if store.Has(p) {
		t.Fatal("torn save exposed a partial blob under the live name")
	}
	if n := countTemps(t, store.Dir()); n != 0 {
		t.Fatalf("torn save leaked %d temp file(s)", n)
	}
}

// saveOnlyFile adapts graphio's write-and-close surface to the chaos
// package's full File interface; Read and Sync are never called on a
// Save path.
type saveOnlyFile struct {
	f SaveFile
}

func (w saveOnlyFile) Read(p []byte) (int, error) { return 0, errors.New("not readable") }
func (w saveOnlyFile) Write(p []byte) (int, error) {
	return w.f.Write(p)
}
func (w saveOnlyFile) Sync() error  { return nil }
func (w saveOnlyFile) Close() error { return w.f.Close() }

// TestNetStoreOrphanTempCleanup: OpenNetStore removes a temp file aged
// past tempMaxAge (the leavings of a killed writer) but keeps a fresh
// one (a live writer mid-save).
func TestNetStoreOrphanTempCleanup(t *testing.T) {
	root := t.TempDir()
	store, err := OpenNetStore(root)
	if err != nil {
		t.Fatal(err)
	}
	dir := store.Dir()

	orphan := filepath.Join(dir, ".tmp-orphan")
	if err := os.WriteFile(orphan, []byte("half a blob"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(orphan, old, old); err != nil {
		t.Fatal(err)
	}
	fresh := filepath.Join(dir, ".tmp-fresh")
	if err := os.WriteFile(fresh, []byte("in flight"), 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := OpenNetStore(root); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stale orphan temp survived open: %v", err)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatalf("fresh temp was swept out from under a live writer: %v", err)
	}
}
