package main

// pinned holds the SHA-256 of sweep.Markdown(sweep.Aggregate(outs)) for
// the first rounds of seeds 1 and 2 (seed 2 is the held-out seed), per
// workload pair at the default trial counts. Both workloads of a pair
// must reproduce them: ref-local and ref-fleet run identical jobs, as do
// topo-cold and topo-warm. Regenerate only for an intended change of
// results, from a run's "digest" lines.
var pinned = map[string]map[uint64][]string{
	"ref": {
		1: {
			"baf658f2060bec71f4274ad2c5a9e51434e9fdd0f41dbbc3a373746490c283af",
			"6790051cfd4a250f4419ffddbec756c3b0acdf3582cdbbb3d27c5a65e126cffe",
			"3322af822ab89323ed0850ffe6f9bfaf53207c8fb186c022966abf7490e870ed",
		},
		2: {
			"a7488aaf2891f64b51e3f832596a6733259b7a4bb5d11949a69b839ea787e499",
			"42ea25446f6b3dd9193e4b3606bd0746314d540e1a57bd69389c722b0917d907",
			"5860228ba172d332861f41864c3e9535035f9e90331e21f46b588d3d2fb607f7",
		},
	},
	// The topology tier's grid is a single cell of 64 trials; its
	// four-digit aggregates say less than the reference grid's, and the
	// spot check compares full per-job Summaries.
	"topo": {
		1: {
			"4da2415a4a0b9f80ff8d10139e493097be84eea5ae25c26fa587e5276827ce91",
			"3306d709834b3856328609daef8a0815a9572bb0bfbe2f82c11fb30c0d3d97c2",
			"42c1738db7cf63a1120843a30fc371ae6be04cdc89c8e54bcdfb5995039280e2",
		},
		2: {
			"49ae4959a28155144c42d0da03d4afd8fd033260726a6511bd840a84a22cbe67",
			"829c766d6e8f9970f8fd0ea67383df2c353082e58da84867d5ba8d481eeff8a1",
			"7739c0042721e3b3b4cd919cda83809e14ca11fdcd71d7fc0c96e1d55223387e",
		},
	},
}

// pinnedDigest is round r's pinned digest under cfg, if there is one.
func pinnedDigest(cfg config, r int) (string, bool) {
	if cfg.trials != cfg.w.trials {
		return "", false
	}
	rounds := pinned[cfg.w.pair][cfg.seed]
	if r >= len(rounds) {
		return "", false
	}
	return rounds[r], true
}
