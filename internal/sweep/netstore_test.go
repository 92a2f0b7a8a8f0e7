package sweep

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/graphio"
	"repro/internal/hgraph"
	"repro/internal/metrics"
)

// TestNetCacheDiskTier pins the disk tier's lifecycle: a cold cache
// populates the store, a fresh cache over the same store serves the miss
// from disk (no regeneration), and the loaded instance is structurally
// identical.
func TestNetCacheDiskTier(t *testing.T) {
	dir := t.TempDir()
	store, err := graphio.OpenNetStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	p := hgraph.Params{N: 64, D: 8, Seed: 9}

	cold := NewNetCacheWithStore(4, store)
	net1, err := cold.Get(p)
	if err != nil {
		t.Fatal(err)
	}
	if hits, enabled := cold.DiskStats(); !enabled || hits != 0 {
		t.Fatalf("cold cache disk stats: hits=%d enabled=%v", hits, enabled)
	}
	if !store.Has(p) {
		t.Fatal("generation did not populate the disk tier")
	}

	warm := NewNetCacheWithStore(4, store)
	net2, err := warm.Get(p)
	if err != nil {
		t.Fatal(err)
	}
	if hits, _ := warm.DiskStats(); hits != 1 {
		t.Fatalf("warm cache disk hits = %d, want 1", hits)
	}
	if net1.Digest() != net2.Digest() {
		t.Fatal("disk-served network differs from generated one")
	}
	// Second lookup is a memory hit; disk count must not move.
	if _, info, err := warm.GetInfo(p); err != nil || info.Tier != TierMem || info.Creator {
		t.Fatalf("second lookup: tier %q creator %v err %v, want a memory hit", info.Tier, info.Creator, err)
	}
	if hits, _ := warm.DiskStats(); hits != 1 {
		t.Fatalf("memory hit consulted the disk tier (hits=%d)", hits)
	}
}

// TestNetCacheDiskTierCorruptFallback pins the fallback: a damaged blob
// is regenerated (and healed), never served.
func TestNetCacheDiskTierCorruptFallback(t *testing.T) {
	dir := t.TempDir()
	store, err := graphio.OpenNetStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	p := hgraph.Params{N: 64, D: 8, Seed: 10}
	net := hgraph.MustNew(p)
	if err := store.Save(net, nil); err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte: the checksum must reject the blob.
	blob, err := os.ReadFile(store.Path(p))
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0xff
	if err := os.WriteFile(store.Path(p), blob, 0o644); err != nil {
		t.Fatal(err)
	}

	c := NewNetCacheWithStore(4, store)
	got, err := c.Get(p)
	if err != nil {
		t.Fatal(err)
	}
	if got.Digest() != net.Digest() {
		t.Fatal("regenerated network differs")
	}
	if hits, _ := c.DiskStats(); hits != 0 {
		t.Fatalf("corrupt blob counted as disk hit (hits=%d)", hits)
	}
	// Regeneration healed the blob: a fresh cache now hits disk.
	healed := NewNetCacheWithStore(4, store)
	if _, err := healed.Get(p); err != nil {
		t.Fatal(err)
	}
	if hits, _ := healed.DiskStats(); hits != 1 {
		t.Fatalf("healed blob not served from disk (hits=%d)", hits)
	}
}

// TestSweepAggregatesInvariantUnderDiskTier runs the same small grid
// memory-only and disk-tiered (cold, then warm) and requires identical
// outcomes — the disk tier must be invisible to results. Both algorithms
// run on the loaded networks, and topology-liar's victims run the
// claimed-topology check on them.
func TestSweepAggregatesInvariantUnderDiskTier(t *testing.T) {
	spec := Spec{
		Name:        "netstore-equiv",
		Sizes:       []int{64},
		Deltas:      []float64{0.75},
		Adversaries: []string{"none", "inflate", "topology-liar"},
		Algorithms:  []string{"basic", "byzantine"},
		Trials:      2,
		Seed:        77,
	}
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	run := func(cache *NetCache) []Outcome {
		outs, err := Run(jobs, Options{Workers: 2, Cache: cache, Band: metrics.DefaultBand})
		if err != nil {
			t.Fatal(err)
		}
		return outs
	}
	want := run(NewNetCacheWithStore(8, nil))

	store, err := graphio.OpenNetStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cold := run(NewNetCacheWithStore(8, store))
	warmCache := NewNetCacheWithStore(8, store)
	warm := run(warmCache)
	if hits, _ := warmCache.DiskStats(); hits == 0 {
		t.Fatal("warm run never hit the disk tier")
	}
	for i := range want {
		if !reflect.DeepEqual(want[i].Summary, cold[i].Summary) {
			t.Fatalf("job %d: cold disk-tier summary differs", i)
		}
		if !reflect.DeepEqual(want[i].Summary, warm[i].Summary) {
			t.Fatalf("job %d: warm disk-tier summary differs", i)
		}
	}
}

// TestEnvNetStore pins the environment contract the CI matrix leg uses.
func TestEnvNetStore(t *testing.T) {
	t.Setenv("REPRO_NETSTORE", "off")
	if s := EnvNetStore(); s != nil {
		t.Fatal("REPRO_NETSTORE=off returned a store")
	}
	dir := t.TempDir()
	t.Setenv("REPRO_NETSTORE", dir)
	s := EnvNetStore()
	if s == nil {
		t.Fatal("REPRO_NETSTORE=<dir> returned nil")
	}
	c := NewNetCache(2)
	if _, err := c.Get(hgraph.Params{N: 32, D: 4, Seed: 4}); err != nil {
		t.Fatal(err)
	}
	if hits, enabled := c.DiskStats(); !enabled {
		t.Fatalf("env-selected store not attached (hits=%d)", hits)
	}
	if s.Len() == 0 {
		t.Fatal("env-selected store not populated by generation")
	}
}

// TestResolveCache pins the -cache/-netstore resolution both commands
// share: a cache is always returned, its store is the flag's if one is
// named, else REPRO_NETSTORE's (best effort), and a named store that
// cannot be opened is an error.
func TestResolveCache(t *testing.T) {
	envDir, flagDir := t.TempDir(), t.TempDir()
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, env, flag string
		capacity        int
		wantCap         int
		wantRoot        string // "" = no store
		wantErr         bool
	}{
		{name: "defaults", wantCap: DefaultCacheCap},
		{name: "capacity", capacity: 7, wantCap: 7},
		{name: "env store", env: envDir, wantCap: DefaultCacheCap, wantRoot: envDir},
		{name: "env off", env: "off", wantCap: DefaultCacheCap},
		{name: "env unopenable degrades", env: file, wantCap: DefaultCacheCap},
		{name: "flag store", flag: flagDir, capacity: 3, wantCap: 3, wantRoot: flagDir},
		{name: "flag overrides env", env: envDir, flag: flagDir, wantCap: DefaultCacheCap, wantRoot: flagDir},
		{name: "flag off overrides env", env: envDir, flag: "off", wantCap: DefaultCacheCap},
		{name: "flag unopenable", flag: file, wantErr: true},
	} {
		t.Run(c.name, func(t *testing.T) {
			t.Setenv("REPRO_NETSTORE", c.env)
			cache, err := ResolveCache(c.capacity, c.flag)
			if c.wantErr {
				if err == nil {
					t.Fatal("unopenable -netstore accepted")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if cache.cap != c.wantCap {
				t.Errorf("capacity %d, want %d", cache.cap, c.wantCap)
			}
			root := ""
			if cache.store != nil {
				root = filepath.Dir(cache.store.Dir())
			}
			if root != c.wantRoot {
				t.Errorf("store root %q, want %q", root, c.wantRoot)
			}
		})
	}
}
