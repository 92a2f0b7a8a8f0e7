package sweep

// shard.go is the distributed-sharding support the sweepd service builds
// on (DESIGN §5): a Spec's pending jobs partition into contiguous
// content-key ranges — deterministic for a given job list, so every
// coordinator restart carves identical shards.

import "sort"

// PartitionByKey splits pending (indices into jobs) into at most shards
// contiguous ranges of the Job.Key() order. Keys are hex SHA-256, so the
// order is uniform over content and independent of grid position: two
// coordinators expanding the same Spec carve byte-identical shards, and
// a resumed coordinator re-carves only what its store still lacks.
// Shard sizes differ by at most one job; fewer pending jobs than shards
// yields fewer (never empty) shards. Within a shard, jobs keep their
// expansion order — the order Run would have executed them anyway.
func PartitionByKey(jobs []Job, pending []int, shards int) [][]int {
	if shards < 1 {
		shards = 1
	}
	if len(pending) == 0 {
		return nil
	}
	keys := make(map[int]string, len(pending))
	byKey := append([]int(nil), pending...)
	for _, i := range byKey {
		keys[i] = jobs[i].Key()
	}
	sort.Slice(byKey, func(a, b int) bool { return keys[byKey[a]] < keys[byKey[b]] })

	if shards > len(byKey) {
		shards = len(byKey)
	}
	out := make([][]int, 0, shards)
	for s := 0; s < shards; s++ {
		lo := s * len(byKey) / shards
		hi := (s + 1) * len(byKey) / shards
		shard := append([]int(nil), byKey[lo:hi]...)
		// Expansion order within the shard: determinism of per-shard
		// execution and progress mirrors single-process Run.
		sort.Ints(shard)
		out = append(out, shard)
	}
	return out
}
