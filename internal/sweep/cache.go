package sweep

import (
	"container/list"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/graphio"
	"repro/internal/hgraph"
	"repro/internal/obs"
)

// NetCache is a bounded, concurrency-safe LRU of generated networks keyed
// by canonical hgraph.Params, with an optional persistent disk tier
// below it (graphio.NetStore). Network generation (the d/2 Hamiltonian
// cycles and the IDs) is the dominant fixed cost of a job at experiment
// scale, so grid cells that share a topology — same (n, d, k, seed),
// different adversary, ε, algorithm, or churn — should pay it once per
// process, and with the disk tier once ever. Lookup is single-flight at
// the memory tier: concurrent demand for the same Params blocks on one
// loader, so the disk read or regeneration also happens once. The memory
// tier is a plain LRU, so a grid that cycles through more distinct
// topologies than its capacity (more than 64 trials per (n, d) at
// DefaultCacheCap, since trial is the innermost axis) misses on every
// job; the disk tier is what makes those misses cheap.
//
// An entry is the network alone: the engine derives what else it needs
// from H per run, so there are no tables to build, cache or persist. A
// corrupt, stale, or version-skewed blob fails validation inside the
// store, and the cache falls back to regeneration (the subsequent save
// heals the entry).
//
// Cached networks are shared across jobs and must be treated as
// immutable; the protocol engine only reads them, apart from counting a
// network's S once on first use, which hgraph.Network makes safe for
// concurrent callers. Neither tier holds G = H ∪ L: a network is H, the
// IDs and S, and the engine never builds G.
type NetCache struct {
	mu     sync.Mutex
	cap    int
	ll     *list.List // front = most recently used
	items  map[hgraph.Params]*list.Element
	store  *graphio.NetStore // nil: memory-only
	hits   int64
	misses int64 // memory-tier misses (disk hits + regenerations)
	disk   int64 // misses served by the disk tier
	tele   cacheTelemetry
}

// cacheTelemetry holds the cache's obs registry bindings, resolved once
// at construction (or SetTelemetry) so the lookup path only touches
// atomic counters. The named counters mirror the Stats/DiskStats
// accessors — TestCacheTelemetryConsistency pins the two surfaces equal.
type cacheTelemetry struct {
	memHits   *obs.Counter // "sweep.cache.mem_hits"
	memMisses *obs.Counter // "sweep.cache.mem_misses"
	diskHits  *obs.Counter // "sweep.cache.disk_hits"
	coalesced *obs.Counter // "sweep.cache.coalesced": lookups that blocked on another caller's in-flight load
	diskHeals *obs.Counter // "sweep.cache.disk_heals": corrupt/stale blobs regenerated over
	gen       *obs.Timer   // "hgraph.gen": topology generations (count + time)
	diskLoad  *obs.Timer   // "sweep.cache.disk_load": disk-tier loads (count + time)
}

func newCacheTelemetry(reg *obs.Registry) cacheTelemetry {
	if reg == nil {
		reg = obs.Default
	}
	return cacheTelemetry{
		memHits:   reg.Counter("sweep.cache.mem_hits"),
		memMisses: reg.Counter("sweep.cache.mem_misses"),
		diskHits:  reg.Counter("sweep.cache.disk_hits"),
		coalesced: reg.Counter("sweep.cache.coalesced"),
		diskHeals: reg.Counter("sweep.cache.disk_heals"),
		gen:       reg.Timer("hgraph.gen"),
		diskLoad:  reg.Timer("sweep.cache.disk_load"),
	}
}

type cacheEntry struct {
	key   hgraph.Params
	ready chan struct{} // closed once net/err are set
	net   *hgraph.Network
	err   error
	// Telemetry for the load that filled the entry, set before ready is
	// closed: which tier satisfied it and what the creator paid.
	tier     string // TierDisk or TierGen
	genTime  time.Duration
	loadTime time.Duration
}

// Cache tiers as recorded in TierInfo, Outcome.CacheTier, and the
// run-log: an already-resident entry, a disk-store load, a fresh
// generation.
const (
	TierMem  = "mem"
	TierDisk = "disk"
	TierGen  = "gen"
)

// TierInfo describes how one lookup was satisfied.
type TierInfo struct {
	// Tier is TierMem for an entry that was already resident (including
	// lookups coalesced onto another caller's in-flight load), else the
	// tier the entry was filled from.
	Tier string
	// Creator marks the lookup that actually performed the disk load or
	// generation; coalesced waiters share the result but not the cost,
	// so per-stage totals never double count.
	Creator bool
	// Generate and DiskLoad are the creator's costs (zero otherwise).
	Generate time.Duration
	DiskLoad time.Duration
}

// DefaultCacheCap bounds the cache when the caller does not: a full-scale
// sweep touches a few dozen distinct topologies per size, and even 8192
// nodes at d=16 is only a few MB, so a small count-based bound suffices.
const DefaultCacheCap = 64

// NewNetCache creates a cache holding at most capacity networks
// (capacity <= 0 selects DefaultCacheCap). The disk tier follows the
// REPRO_NETSTORE environment default (see EnvNetStore); use
// NewNetCacheWithStore to select it explicitly.
func NewNetCache(capacity int) *NetCache {
	return NewNetCacheWithStore(capacity, EnvNetStore())
}

// NewNetCacheWithStore is NewNetCache with an explicit disk tier
// (nil: memory-only, regardless of environment).
func NewNetCacheWithStore(capacity int, store *graphio.NetStore) *NetCache {
	if capacity <= 0 {
		capacity = DefaultCacheCap
	}
	return &NetCache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[hgraph.Params]*list.Element),
		store: store,
		tele:  newCacheTelemetry(nil),
	}
}

// SetTelemetry rebinds the cache's obs counters to reg (nil restores the
// process default registry). Call before the cache serves lookups —
// counts recorded under the previous binding stay there.
func (c *NetCache) SetTelemetry(reg *obs.Registry) {
	c.mu.Lock()
	c.tele = newCacheTelemetry(reg)
	c.mu.Unlock()
}

// ResolveNetStore opens the topology store a REPRO_NETSTORE-style
// selector names: "", "off", or "0" is no store (nil, nil); "on" or "1"
// is the user cache directory (<UserCacheDir>/repro-netstore); any
// other value is the store root directory. CLI flags share this
// vocabulary with the environment variable so the README's env examples
// transliterate to -netstore directly.
func ResolveNetStore(v string) (*graphio.NetStore, error) {
	var root string
	switch v {
	case "", "off", "0":
		return nil, nil
	case "on", "1":
		base, err := os.UserCacheDir()
		if err != nil {
			return nil, err
		}
		root = filepath.Join(base, "repro-netstore")
	default:
		root = v
	}
	return graphio.OpenNetStore(root)
}

// EnvNetStore resolves the REPRO_NETSTORE environment variable. An
// unopenable store degrades to nil — the ambient disk tier is an
// optimization, never a prerequisite (explicit CLI selections should
// use ResolveNetStore and surface the error instead).
func EnvNetStore() *graphio.NetStore {
	store, err := ResolveNetStore(os.Getenv("REPRO_NETSTORE"))
	if err != nil {
		return nil
	}
	return store
}

// ResolveCache builds the network cache that cmd/sweep's and cmd/sweepd
// -worker's -cache and -netstore flags select: capacity networks (<= 0:
// DefaultCacheCap) over the store netstore names, in ResolveNetStore's
// vocabulary, or over the REPRO_NETSTORE default when netstore is "". A
// store named explicitly that cannot be opened is an error — sweeping
// without it would regenerate every topology the user asked to serve
// from disk — while the environment's store stays best effort
// (EnvNetStore). The flag is resolved before any cache exists, so an
// override never opens (or mkdirs) the environment's store.
func ResolveCache(capacity int, netstore string) (*NetCache, error) {
	if netstore == "" {
		return NewNetCache(capacity), nil
	}
	store, err := ResolveNetStore(netstore)
	if err != nil {
		return nil, err
	}
	return NewNetCacheWithStore(capacity, store), nil
}

// Get returns the network for p, generating it on first use. Concurrent
// callers with equal canonical Params share one generation.
func (c *NetCache) Get(p hgraph.Params) (*hgraph.Network, error) {
	e, _ := c.entry(p)
	return e.net, e.err
}

// GetInfo is Get plus how the lookup was satisfied — the sweep runner's
// stage-timing source.
func (c *NetCache) GetInfo(p hgraph.Params) (*hgraph.Network, TierInfo, error) {
	e, created := c.entry(p)
	info := TierInfo{Tier: TierMem}
	if created {
		info = TierInfo{Tier: e.tier, Creator: true, Generate: e.genTime, DiskLoad: e.loadTime}
	}
	return e.net, info, e.err
}

// entry returns the ready cache entry for p, generating it on first use;
// created reports whether this call filled it (vs. finding it resident
// or coalescing onto another caller's in-flight load).
func (c *NetCache) entry(p hgraph.Params) (e *cacheEntry, created bool) {
	p = p.Canonical()
	c.mu.Lock()
	if el, ok := c.items[p]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		c.hits++
		tele := c.tele
		c.mu.Unlock()
		tele.memHits.Inc()
		select {
		case <-e.ready:
		default:
			// The entry is still being filled by whoever created it: this
			// lookup coalesces onto that load instead of duplicating it.
			tele.coalesced.Inc()
			<-e.ready
		}
		return e, false
	}
	c.misses++
	tele := c.tele
	e = &cacheEntry{key: p, ready: make(chan struct{})}
	c.items[p] = c.ll.PushFront(e)
	if c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
	}
	c.mu.Unlock()
	tele.memMisses.Inc()

	// Disk tier first: a valid blob replaces generation. Any load
	// failure — missing, corrupt, stale, version skew — falls through to
	// regeneration.
	healable := false
	if c.store != nil {
		start := time.Now()
		net, err := c.store.Load(p)
		if err == nil {
			e.net = net
			e.tier = TierDisk
			e.loadTime = time.Since(start)
			c.mu.Lock()
			c.disk++
			c.mu.Unlock()
			tele.diskHits.Inc()
			tele.diskLoad.Observe(e.loadTime)
			close(e.ready)
			return e, true
		}
		// A blob that exists but fails to load is corrupt, stale, or
		// version-skewed; the regeneration below heals it via Save.
		healable = !errors.Is(err, os.ErrNotExist)
	}
	start := time.Now()
	e.net, e.err = hgraph.New(p)
	if e.err == nil {
		e.tier = TierGen
		e.genTime = time.Since(start)
		tele.gen.Observe(e.genTime)
		if c.store != nil {
			// Best effort: a failed save costs a regeneration next
			// process, not this job.
			if c.store.Save(e.net, nil) == nil && healable {
				tele.diskHeals.Inc()
			}
		}
	}
	close(e.ready)
	return e, true
}

// Stats reports cache hits and misses so far.
func (c *NetCache) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// DiskStats reports the disk tier's state: whether a store is attached
// and how many memory misses it served without regeneration.
func (c *NetCache) DiskStats() (hits int64, enabled bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.disk, c.store != nil
}

// Len returns the number of cached networks.
func (c *NetCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
