package sweep

// shard.go is the distributed-sharding support the sweepd service builds
// on (DESIGN §5): a Spec's pending jobs partition into contiguous ranges
// of the (topology key, job key) order — deterministic for a given job
// list, so every coordinator restart carves identical shards, and
// grouped by topology, so a worker builds each of its topologies once.

import (
	"cmp"
	"slices"
	"strings"

	"repro/internal/graphio"
	"repro/internal/hgraph"
)

// PartitionByKey splits pending (indices into jobs) into at most shards
// contiguous ranges of the order that sorts jobs by their topology's
// content key (graphio.NetKey of Job.Net), then by Job.Key(). Keys are
// hex SHA-256, so the order is uniform over content and independent of
// grid position: two coordinators expanding the same Spec carve
// byte-identical shards, and a resumed coordinator re-carves only what
// its store still lacks. Sorting by topology first keeps each
// topology's jobs adjacent, so a shard holds whole topologies except
// the at most shards−1 that straddle a cut, and a worker's network
// cache serves a topology's later jobs from memory.
//
// keys holds Job.Key() of every job by index: the caller has hashed
// the list already (the coordinator resolves store hits by it), so no
// job is hashed here; each distinct topology is hashed once. Shard
// sizes differ by at most one job; fewer pending jobs than shards
// yields fewer (never empty) shards. Within a shard, jobs keep their
// expansion order — the order Run would have executed them anyway.
func PartitionByKey(jobs []Job, keys []string, pending []int, shards int) [][]int {
	if shards < 1 {
		shards = 1
	}
	if len(pending) == 0 {
		return nil
	}
	type sortKey struct {
		topo, job string
		i         int
	}
	topos := make(map[hgraph.Params]string)
	byKey := make([]sortKey, len(pending))
	for p, i := range pending {
		net := jobs[i].Net.Canonical()
		topo, ok := topos[net]
		if !ok {
			topo = graphio.NetKey(net)
			topos[net] = topo
		}
		byKey[p] = sortKey{topo: topo, job: keys[i], i: i}
	}
	slices.SortFunc(byKey, func(a, b sortKey) int {
		if c := strings.Compare(a.topo, b.topo); c != 0 {
			return c
		}
		if c := strings.Compare(a.job, b.job); c != 0 {
			return c
		}
		return cmp.Compare(a.i, b.i)
	})

	if shards > len(byKey) {
		shards = len(byKey)
	}
	out := make([][]int, 0, shards)
	for s := 0; s < shards; s++ {
		lo := s * len(byKey) / shards
		hi := (s + 1) * len(byKey) / shards
		shard := make([]int, 0, hi-lo)
		for _, k := range byKey[lo:hi] {
			shard = append(shard, k.i)
		}
		// Expansion order within the shard: determinism of per-shard
		// execution and progress mirrors single-process Run.
		slices.Sort(shard)
		out = append(out, shard)
	}
	return out
}
