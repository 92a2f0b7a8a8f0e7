package sweep

// batch.go routes compatible pending jobs through the batched round
// engine (core.RunBatch): basic-algorithm jobs that share a topology and
// a protocol schedule — same canonical Net params, Epsilon, MaxPhase —
// run in lockstep as lanes of one batched invocation on the worker's
// BatchWorld arena, one CSR edge traversal servicing every lane. The
// grouping is pure scheduling: each job still produces its own Outcome,
// Summary, store Record, and progress callback, with content keys and
// digests byte-identical to scalar execution (the batch engine's per-lane
// golden suite pins that), so stores written by batched and scalar sweeps
// are interchangeable and resume across the modes transparently.

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"time"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/hgraph"
	"repro/internal/metrics"
	"repro/internal/rng"
)

// DefaultBatchLanes is the lane width "on" selects: wide enough to
// amortize the per-round lane bookkeeping, narrow enough that the
// lane-major boards of a mid-size grid cell stay cache-resident.
const DefaultBatchLanes = 16

// ResolveBatch parses a REPRO_BATCH-style selector into a lane width:
// "", "off", or "0" disables batching (width 1, the scalar engine);
// "on" or "auto" selects DefaultBatchLanes; any integer selects that
// width, clamped to core.MaxBatchLanes. CLI flags share this vocabulary
// with the environment variable (the REPRO_NETSTORE convention).
func ResolveBatch(v string) (int, error) {
	switch v {
	case "", "off", "0":
		return 1, nil
	case "on", "auto":
		return DefaultBatchLanes, nil
	}
	b, err := strconv.Atoi(v)
	if err != nil || b < 1 {
		return 0, fmt.Errorf("sweep: bad batch selector %q (want on|off|1..%d)", v, core.MaxBatchLanes)
	}
	if b > core.MaxBatchLanes {
		b = core.MaxBatchLanes
	}
	return b, nil
}

var envBatch = sync.OnceValue(func() int {
	b, err := ResolveBatch(os.Getenv("REPRO_BATCH"))
	if err != nil {
		return 1
	}
	return b
})

// EnvBatch resolves the REPRO_BATCH environment variable; unparseable
// values degrade to scalar execution — batching is an optimization,
// never a prerequisite.
func EnvBatch() int { return envBatch() }

// batchKey is the compatibility class for lockstep execution: the axes
// every lane of a batched invocation must share (the algorithm is always
// basic, see batchPlan). Everything else — adversary, placement,
// Byzantine count, churn, loss, seeds, injection instrumentation —
// varies freely across lanes.
type batchKey struct {
	net      hgraph.Params
	epsilon  float64
	maxPhase int
}

// batchPlan partitions the pending job indices into work items: slices
// of jobs executed as one batched invocation, in group-discovery order,
// chunked to the configured lane width (the final chunk of a group is
// ragged). Only basic-algorithm jobs form lanes: each Byzantine lane
// still runs its own exchange and chain attestation, and such lanes
// measured 0.45–0.67× the scalar engine's speed (see cmd/bench's
// minBatchSpeedup). Width 1, a per-job Observer, per-job occupancy
// recording, or the Byzantine algorithm fall back to singleton items —
// the scalar path.
func batchPlan(jobs []Job, pending []int, opts Options) [][]int {
	if opts.Batch <= 1 || opts.Observer != nil {
		items := make([][]int, len(pending))
		for k, i := range pending {
			items[k] = []int{i}
		}
		return items
	}
	var (
		items  [][]int
		order  []batchKey
		groups = make(map[batchKey][]int)
	)
	for _, i := range pending {
		j := jobs[i]
		if j.RecordOccupancy || j.Algorithm != core.AlgorithmBasic {
			// The batch engine rejects RecordFrontierOccupancy; these jobs
			// keep the scalar engine's instrumentation. Byzantine jobs run
			// faster on the scalar engine.
			items = append(items, []int{i})
			continue
		}
		k := batchKey{net: j.Net.Canonical(), epsilon: j.Epsilon, maxPhase: j.MaxPhase}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], i)
	}
	for _, k := range order {
		g := groups[k]
		for len(g) > 0 {
			w := opts.Batch
			if len(g) < w {
				w = len(g)
			}
			items = append(items, g[:w:w])
			g = g[w:]
		}
	}
	return items
}

// executeBatch runs one work item's jobs as lanes of a single batched
// invocation on the worker's BatchWorld, writing each job's Outcome in
// place. The shared topology lookup (and any generation it performed) is
// attributed to the item's first job, mirroring the Creator convention,
// so summed stage totals never double count; the invocation's run time
// is split evenly across lanes.
func executeBatch(jobs []Job, idxs []int, opts Options, bw *core.BatchWorld, tele runTelemetry, outs []Outcome) {
	start := time.Now()
	for _, i := range idxs {
		outs[i] = Outcome{Job: jobs[i]}
	}
	topo, info, err := opts.Cache.GetTopologyInfo(jobs[idxs[0]].Net)
	lookup := time.Since(start)
	tele.stageLookup.Observe(lookup)
	if err != nil {
		for _, i := range idxs {
			outs[i].Err = err
		}
		return
	}
	// The item's single lookup is attributed to its first job (the
	// Creator convention); every other lane shares the materialized
	// topology, which is a memory-tier hit in scalar terms.
	for _, i := range idxs[1:] {
		outs[i].CacheTier = TierMem
	}
	first := &outs[idxs[0]]
	first.Stages.CacheLookup = lookup
	first.CacheTier = info.Tier
	if info.Creator {
		first.Stages.Generate = info.Generate
		first.Stages.DiskLoad = info.DiskLoad
		if info.Generate > 0 {
			tele.stageGen.Observe(info.Generate)
		}
		if info.DiskLoad > 0 {
			tele.stageDisk.Observe(info.DiskLoad)
		}
	}

	// Materialize lanes; a job whose placement or adversary fails to
	// resolve errors alone, the rest of the item still runs.
	specs := make([]core.LaneSpec, 0, len(idxs))
	live := make([]int, 0, len(idxs))
	for _, i := range idxs {
		j := jobs[i]
		var byz []bool
		if j.ByzCount > 0 {
			pl, ok := hgraph.PlacementByName(j.Placement)
			if !ok {
				outs[i].Err = fmt.Errorf("unknown placement %q", j.Placement)
				continue
			}
			byz = pl.Place(topo.Net.H, j.ByzCount, rng.New(j.PlaceSeed))
		}
		adv, ok := adversary.ByName(j.Adversary)
		if !ok {
			outs[i].Err = fmt.Errorf("unknown adversary %q", j.Adversary)
			continue
		}
		specs = append(specs, core.LaneSpec{Byz: byz, Adv: adv, Cfg: j.Config(opts.RunWorkers)})
		live = append(live, i)
	}
	if len(live) == 0 {
		return
	}

	runStart := time.Now()
	results, err := bw.RunTopology(topo, specs)
	runTime := time.Since(runStart)
	if err != nil {
		tele.stageRun.Observe(runTime)
		for _, i := range live {
			outs[i].Err = err
		}
		return
	}
	tele.batchInvocations.Inc()
	tele.batchLanes.Add(int64(len(live)))
	perLane := runTime / time.Duration(len(live))

	for k, i := range live {
		res := results[k]
		out := &outs[i]
		out.BatchLanes = len(live)
		out.Stages.Run = perLane
		// One observation per job, not per invocation: the registry's
		// stage counts must be invariant to the batch scheduling.
		tele.stageRun.Observe(perLane)

		tele.runs.Inc()
		tele.rounds.Add(res.Rounds)
		tele.messages.Add(res.Messages)
		tele.bits.Add(res.Bits)
		tele.dropped.Add(res.DroppedMessages)
		tele.rejoins.Add(int64(res.Rejoins))

		aggStart := time.Now()
		out.Summary = metrics.Summarize(res, opts.Band)
		if opts.KeepResults {
			out.Result = res
			out.Net = topo.Net
			out.Byz = specs[k].Byz
		}
		if opts.Store != nil {
			rec := Record{
				Key:       out.Job.Key(),
				Job:       out.Job,
				Summary:   out.Summary,
				ElapsedMS: float64(time.Since(start).Microseconds()) / 1000,
			}
			if err := opts.Store.Put(rec); err != nil {
				out.Err = err
			}
		}
		out.Stages.Aggregate = time.Since(aggStart)
		tele.stageAgg.Observe(out.Stages.Aggregate)
	}
}
