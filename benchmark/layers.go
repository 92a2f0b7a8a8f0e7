package main

// layers.go turns one traced round into the per-layer metrics named in
// BENCHMARK.json. Totals come from the round's private obs.Registry and
// from spans timed at the seams; distributions from per-job samples.

import (
	"math"
	"runtime/metrics"
	"time"

	"repro/internal/obs"
)

// perLayerDefs lists the per-layer metrics a traced run reports, in the
// order BENCHMARK.json declares them. A layer a workload does not use
// (sweepd off the fleet, graphio off the topology tier) reads 0.
var perLayerDefs = func() []metricDef {
	d := func(name, unit, better string) metricDef { return metricDef{Name: name, Unit: unit, Better: better} }
	defs := []metricDef{
		d("hgraph.gen.calls", "count", "lower"),
		d("hgraph.gen.busy_s", "s", "lower"),
		d("graphio.load.calls", "count", "lower"),
		d("graphio.load.busy_s", "s", "lower"),
		d("graphio.save.calls", "count", "lower"),
		d("graphio.save.busy_s", "s", "lower"),
		d("graphio.save.bytes", "bytes", "lower"),
		d("sweep.cache.mem_hit_ratio", "ratio", "higher"),
		d("sweep.cache.wait_s", "s", "lower"),
		d("core.run.calls", "count", "lower"),
		d("core.run.busy_s", "s", "lower"),
		d("core.run.p50_ms", "ms", "lower"),
		d("core.run.p95_ms", "ms", "lower"),
		d("core.run.tail_share", "ratio", "lower"),
		d("core.rounds", "count", "lower"),
		d("core.messages", "count", "lower"),
		d("sweep.job.p50_ms", "ms", "lower"),
		d("sweep.job.p95_ms", "ms", "lower"),
		d("sweep.aggregate.busy_s", "s", "lower"),
		d("sweep.slot.idle_s", "s", "lower"),
		d("sweep.unattributed_s", "s", "lower"),
		d("sweep.store.append.calls", "count", "lower"),
		d("sweep.store.append.busy_s", "s", "lower"),
		d("sweep.store.append.bytes", "bytes", "lower"),
		d("sweep.store.fsync.calls", "count", "lower"),
		d("sweep.store.fsync.busy_s", "s", "lower"),
	}
	for _, ep := range endpoints {
		defs = append(defs,
			d("sweepd.client."+ep+".calls", "count", "lower"),
			d("sweepd.client."+ep+".p50_ms", "ms", "lower"),
			d("sweepd.client."+ep+".busy_s", "s", "lower"),
			d("sweepd.client."+ep+".bytes", "bytes", "lower"),
			d("sweepd.server."+ep+".busy_s", "s", "lower"))
	}
	return append(defs,
		d("sweepd.client.retries", "count", "lower"),
		d("sweepd.shards.served", "count", "lower"),
		d("sweepd.shards.reassigned", "count", "lower"),
		d("sweepd.shard.skew", "ratio", "lower"),
		d("go.gc.cycles", "count", "lower"),
		d("go.gc.pause_s", "s", "lower"),
		d("go.alloc_bytes", "bytes", "lower"),
		d("trace.overhead", "ratio", "lower"))
}()

// gcStats is the Go runtime's cumulative GC accounting.
type gcStats struct {
	cycles uint64
	alloc  uint64  // bytes allocated
	pause  float64 // seconds of GC stop-the-world pauses
}

// pauseMetric is the GC pause histogram; the older name is read where
// the runtime predates it.
var pauseMetric = func() string {
	for _, d := range metrics.All() {
		if d.Name == "/sched/pauses/total/gc:seconds" {
			return d.Name
		}
	}
	return "/gc/pauses:seconds"
}()

func readGC() gcStats {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: pauseMetric},
	}
	metrics.Read(s)
	var g gcStats
	if s[0].Value.Kind() == metrics.KindUint64 {
		g.cycles = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		g.alloc = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		g.pause = histogramSum(s[2].Value.Float64Histogram())
	}
	return g
}

// histogramSum approximates the sum of a histogram's samples by bucket
// midpoints (the runtime keeps counts, not sums).
func histogramSum(h *metrics.Float64Histogram) float64 {
	sum := 0.0
	for i, c := range h.Counts {
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		if math.IsInf(lo, -1) {
			lo = hi
		}
		if math.IsInf(hi, 1) {
			hi = lo
		}
		sum += float64(c) * (lo + hi) / 2
	}
	return sum
}

// layerMetrics computes the per-layer metrics of one traced round whose
// sweep phase ran over [from, to).
func layerMetrics(tr *tracer, spans []span, table []map[string]time.Duration, reg *obs.Registry,
	from, to time.Duration, gc gcStats) map[string]float64 {
	m := map[string]float64{}
	snap := reg.Snapshot()
	timer := func(name string) obs.TimerStat { return snap.Timers[name] }
	counter := func(name string) float64 { return float64(snap.Counters[name]) }
	sec := func(t obs.TimerStat) float64 { return t.TotalMS / 1e3 }
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

	// hgraph: generations on cache misses, plus the set-up pre-fill.
	gen := timer("hgraph.gen")
	m["hgraph.gen.calls"] = float64(gen.Count)
	m["hgraph.gen.busy_s"] = sec(gen)
	var (
		saveN, saveBytes, sweepSave      float64
		saveBusy                         time.Duration
		appendN, appendBytes, fsyncN     float64
		appendBusy, fsyncBusy            time.Duration
		jobDur                           []float64
		shardDur                         []float64
		client                           = map[string][]float64{}
		clientBusy, clientBytes, srvBusy = map[string]float64{}, map[string]float64{}, map[string]float64{}
	)
	for _, s := range spans {
		switch s.Name {
		case "hgraph.generate":
			if !s.Derived {
				m["hgraph.gen.calls"]++
				m["hgraph.gen.busy_s"] += s.dur().Seconds()
			}
		case "graphio.save":
			saveN++
			saveBusy += s.dur()
			saveBytes += float64(s.Bytes)
			if s.Start >= from && s.End <= to {
				sweepSave += s.dur().Seconds()
			}
		case "sweep.store.append":
			appendN++
			appendBusy += s.dur()
			appendBytes += float64(s.Bytes)
		case "sweep.store.fsync":
			fsyncN++
			fsyncBusy += s.dur()
		case "sweep.job":
			jobDur = append(jobDur, ms(s.dur()))
		case "sweepd.shard":
			shardDur = append(shardDur, s.dur().Seconds())
		}
		for _, ep := range endpoints {
			switch s.Name {
			case "sweepd." + ep:
				client[ep] = append(client[ep], ms(s.dur()))
				clientBusy[ep] += s.dur().Seconds()
				clientBytes[ep] += float64(s.Bytes)
			case "sweepd.server." + ep:
				srvBusy[ep] += s.dur().Seconds()
			}
		}
	}

	// graphio: the topology store's read and write paths.
	load := timer("sweep.cache.disk_load")
	m["graphio.load.calls"] = float64(load.Count)
	m["graphio.load.busy_s"] = sec(load)
	m["graphio.save.calls"] = saveN
	m["graphio.save.busy_s"] = saveBusy.Seconds()
	m["graphio.save.bytes"] = saveBytes

	// sweep cache: hit ratio, and lookup time spent on none of its own
	// work (blocked on another slot's load, renaming, bookkeeping).
	hits, misses := counter("sweep.cache.mem_hits"), counter("sweep.cache.mem_misses")
	if hits+misses > 0 {
		m["sweep.cache.mem_hit_ratio"] = hits / (hits + misses)
	}
	wait := sec(timer("sweep.stage.cache_lookup")) - sec(timer("sweep.stage.generate")) -
		sec(timer("sweep.stage.disk_load")) - sweepSave
	m["sweep.cache.wait_s"] = math.Max(wait, 0)

	// core: the engine, per run.
	var runs []float64
	for _, st := range tr.outcomes {
		runs = append(runs, ms(st.Run))
	}
	p95 := percentile(runs, 95)
	var total, tail float64
	for _, r := range runs {
		total += r
		if r > p95 {
			tail += r
		}
	}
	m["core.run.calls"] = counter("core.runs")
	m["core.run.busy_s"] = sec(timer("sweep.stage.run"))
	m["core.run.p50_ms"] = median(runs)
	m["core.run.p95_ms"] = p95
	if total > 0 {
		m["core.run.tail_share"] = tail / total
	}
	m["core.rounds"] = counter("core.rounds")
	m["core.messages"] = counter("core.messages")

	// sweep runner: per-job wall time and the slot accounting.
	m["sweep.job.p50_ms"] = median(jobDur)
	m["sweep.job.p95_ms"] = percentile(jobDur, 95)
	m["sweep.aggregate.busy_s"] = sec(timer("sweep.stage.aggregate"))
	var idle, unattributed time.Duration
	for _, row := range table {
		idle += row["idle"]
		unattributed += row["unattributed"]
	}
	m["sweep.slot.idle_s"] = idle.Seconds()
	m["sweep.unattributed_s"] = unattributed.Seconds()

	// sweep store: appends and fsyncs on the result store's file.
	m["sweep.store.append.calls"] = appendN
	m["sweep.store.append.busy_s"] = appendBusy.Seconds()
	m["sweep.store.append.bytes"] = appendBytes
	m["sweep.store.fsync.calls"] = fsyncN
	m["sweep.store.fsync.busy_s"] = fsyncBusy.Seconds()

	// sweepd: each endpoint from the workers' side and the coordinator's.
	for _, ep := range endpoints {
		m["sweepd.client."+ep+".calls"] = float64(len(client[ep]))
		m["sweepd.client."+ep+".p50_ms"] = median(client[ep])
		m["sweepd.client."+ep+".busy_s"] = clientBusy[ep]
		m["sweepd.client."+ep+".bytes"] = clientBytes[ep]
		m["sweepd.server."+ep+".busy_s"] = srvBusy[ep]
	}
	m["sweepd.client.retries"] = counter("sweepd.client.retries")
	m["sweepd.shards.served"] = counter("sweepd.shards.served")
	m["sweepd.shards.reassigned"] = counter("sweepd.shards.reassigned")
	if med := median(shardDur); med > 0 {
		m["sweepd.shard.skew"] = percentile(shardDur, 100) / med
	}

	// Go runtime, over the sweep phase.
	m["go.gc.cycles"] = float64(gc.cycles)
	m["go.gc.pause_s"] = gc.pause
	m["go.alloc_bytes"] = float64(gc.alloc)
	return m
}
