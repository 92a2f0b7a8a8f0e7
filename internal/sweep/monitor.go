package sweep

// monitor.go is the live observability surface of a running sweep: a
// Monitor folds completed Outcomes (via Options.Progress) into progress
// counts, per-stage time totals, and cache-tier tallies, and renders
// them two ways — a JSON Status document for the -http /status endpoint
// (the embryo of the sweepd worker heartbeat, ROADMAP item 1) and an
// end-of-sweep stage-time breakdown table. Everything here is derived
// from Outcome fields that are themselves observational, so a monitored
// sweep produces byte-identical stores and aggregates to a bare one.

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// Monitor accumulates live progress for one sweep. Create with
// NewMonitor, feed it from Options.Progress (Observe is safe under the
// scheduler's serial progress lock and also safe for concurrent use),
// and read Status from any goroutine — the HTTP handler polls it while
// workers are mid-grid.
type Monitor struct {
	mu      sync.Mutex
	spec    string
	total   int
	done    int
	ran     int
	resumed int
	errors  int
	start   time.Time
	expand  time.Duration
	stages  StageTimes
	tiers   map[string]int
	cache   *NetCache
	reg     *obs.Registry
}

// NewMonitor returns a monitor for a sweep of total jobs. cache supplies
// the hit-rate figures (nil omits them); reg supplies the telemetry
// snapshot (nil: obs.Default) and should match Options.Telemetry.
func NewMonitor(spec string, total int, cache *NetCache, reg *obs.Registry) *Monitor {
	if reg == nil {
		reg = obs.Default
	}
	return &Monitor{
		spec:  spec,
		total: total,
		start: time.Now(),
		tiers: make(map[string]int),
		cache: cache,
		reg:   reg,
	}
}

// SetExpand records the spec-expansion stage, which happens before the
// scheduler (and therefore the per-job stages) exists.
func (m *Monitor) SetExpand(d time.Duration) {
	m.mu.Lock()
	m.expand = d
	m.mu.Unlock()
}

// Observe folds one completed outcome. Wire it as (or into) the
// Options.Progress callback.
func (m *Monitor) Observe(done, total int, out Outcome) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.done, m.total = done, total
	if out.Dropped {
		// Dropped jobs were shed unrun (a sweepd worker losing stolen
		// work); they occupy a progress slot but ran nothing.
		return
	}
	if out.Err != nil {
		m.errors++
	}
	if out.FromStore {
		m.resumed++
		return
	}
	m.ran++
	m.stages.add(out.Stages)
	if out.CacheTier != "" {
		m.tiers[out.CacheTier]++
	}
}

// StageStat is one row of the stage-time breakdown.
type StageStat struct {
	Stage string `json:"stage"`
	// TotalMS sums the stage across jobs; MeanMS divides by the jobs
	// that actually ran (expand, a sweep-level stage, reports no mean).
	TotalMS float64 `json:"total_ms"`
	MeanMS  float64 `json:"mean_ms,omitempty"`
	// Share is the stage's fraction of all accounted stage time.
	Share float64 `json:"share"`
}

// CacheStatus is the cache tiers' live hit accounting.
type CacheStatus struct {
	MemHits    int64   `json:"mem_hits"`
	MemMisses  int64   `json:"mem_misses"`
	MemHitRate float64 `json:"mem_hit_rate"`
	// DiskHits counts memory misses served by the topology store;
	// DiskHitRate is their fraction of memory misses.
	DiskEnabled bool    `json:"disk_enabled"`
	DiskHits    int64   `json:"disk_hits,omitempty"`
	DiskHitRate float64 `json:"disk_hit_rate,omitempty"`
}

// Status is the live /status document.
type Status struct {
	Spec    string `json:"spec"`
	Total   int    `json:"total"`
	Done    int    `json:"done"`
	Ran     int    `json:"ran"`
	Resumed int    `json:"resumed"`
	Errors  int    `json:"errors"`

	ElapsedMS  float64 `json:"elapsed_ms"`
	JobsPerSec float64 `json:"jobs_per_sec"`
	// ETAMS extrapolates the remaining jobs at the observed rate (0
	// until the first job completes, and once the sweep is done).
	ETAMS float64 `json:"eta_ms"`

	Stages     []StageStat    `json:"stages,omitempty"`
	CacheTiers map[string]int `json:"cache_tiers,omitempty"`
	Cache      *CacheStatus   `json:"cache,omitempty"`
	Telemetry  obs.Snapshot   `json:"telemetry"`
}

// Status renders the monitor's current view.
func (m *Monitor) Status() Status {
	m.mu.Lock()
	elapsed := time.Since(m.start)
	s := Status{
		Spec:      m.spec,
		Total:     m.total,
		Done:      m.done,
		Ran:       m.ran,
		Resumed:   m.resumed,
		Errors:    m.errors,
		ElapsedMS: float64(elapsed.Microseconds()) / 1000,
		Stages:    stageStats(m.expand, m.stages, m.ran),
	}
	if len(m.tiers) > 0 {
		s.CacheTiers = make(map[string]int, len(m.tiers))
		for tier, n := range m.tiers {
			s.CacheTiers[tier] = n
		}
	}
	cache, reg := m.cache, m.reg
	m.mu.Unlock()

	if elapsed > 0 && s.Done > 0 {
		s.JobsPerSec = float64(s.Done) / elapsed.Seconds()
		if remaining := s.Total - s.Done; remaining > 0 {
			s.ETAMS = s.ElapsedMS / float64(s.Done) * float64(remaining)
		}
	}
	if cache != nil {
		hits, misses := cache.Stats()
		diskHits, diskOn := cache.DiskStats()
		cs := &CacheStatus{MemHits: hits, MemMisses: misses, DiskEnabled: diskOn, DiskHits: diskHits}
		if total := hits + misses; total > 0 {
			cs.MemHitRate = float64(hits) / float64(total)
		}
		if diskOn && misses > 0 {
			cs.DiskHitRate = float64(diskHits) / float64(misses)
		}
		s.Cache = cs
	}
	s.Telemetry = reg.Snapshot()
	return s
}

// stageStats builds the breakdown rows: the sweep-level expand stage
// followed by the per-job stages, shares normalized over everything
// accounted. Zero-duration stages are kept — a zero is information
// (the tier was wired but idle, e.g. no disk store attached).
func stageStats(expand time.Duration, stages StageTimes, ran int) []StageStat {
	rows := []struct {
		name   string
		d      time.Duration
		perJob bool
	}{
		{"expand", expand, false},
		{"cache_lookup", stages.CacheLookup, true},
		{"generate", stages.Generate, true},
		{"disk_load", stages.DiskLoad, true},
		{"run", stages.Run, true},
		{"aggregate", stages.Aggregate, true},
	}
	var sum time.Duration
	for _, r := range rows {
		sum += r.d
	}
	out := make([]StageStat, 0, len(rows))
	for _, r := range rows {
		st := StageStat{Stage: r.name, TotalMS: float64(r.d.Microseconds()) / 1000}
		if r.perJob && ran > 0 {
			st.MeanMS = st.TotalMS / float64(ran)
		}
		if sum > 0 {
			st.Share = float64(r.d) / float64(sum)
		}
		out = append(out, st)
	}
	return out
}

// Breakdown renders the end-of-sweep stage-time table. Generation and
// disk-load rows are sub-stages of cache_lookup (the creator's cost,
// observed inside the lookup), so shares are reported against the
// job-stage total with cache_lookup's internals left visible rather
// than double-counted away.
func (m *Monitor) Breakdown() string {
	m.mu.Lock()
	expand, stages, ran := m.expand, m.stages, m.ran
	m.mu.Unlock()

	var b strings.Builder
	fmt.Fprintf(&b, "stage breakdown (%d jobs ran):\n", ran)
	fmt.Fprintf(&b, "  %-14s %12s %12s %7s\n", "stage", "total", "mean/job", "share")
	for _, st := range stageStats(expand, stages, ran) {
		mean := "-"
		if st.MeanMS > 0 {
			mean = fmtMS(st.MeanMS)
		}
		fmt.Fprintf(&b, "  %-14s %12s %12s %6.1f%%\n",
			st.Stage, fmtMS(st.TotalMS), mean, st.Share*100)
	}
	return b.String()
}

// fmtMS renders a millisecond quantity compactly.
func fmtMS(ms float64) string {
	switch {
	case ms >= 60_000:
		return fmt.Sprintf("%.1fmin", ms/60_000)
	case ms >= 1000:
		return fmt.Sprintf("%.2fs", ms/1000)
	case ms >= 1:
		return fmt.Sprintf("%.1fms", ms)
	default:
		return fmt.Sprintf("%.3fms", ms)
	}
}
