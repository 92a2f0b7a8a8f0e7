package expt

import (
	"repro/internal/core"
	"repro/internal/sweep"
)

// runSweep executes jobs through the sweep scheduler, returning outcomes
// in job order. The experiments build their job lists in the same
// nested-loop order as their aggregation loops, so each experiment's
// folding code stays sequential and its table output stays
// byte-identical — only the protocol runs themselves fan out across
// cores (worker-count independence of each run is guarded by the
// determinism regression test in internal/sweep).
//
// keep retains each job's full Result/Network/Byzantine state on the
// outcome; experiments that fold Summaries alone pass false so the grid
// holds O(1) results in memory instead of O(jobs · n).
//
// Execution cost per job is the arena steady state: each scheduler worker
// reuses one core.World across its jobs, on networks shared through the
// network cache.
func runSweep(jobs []sweep.Job, keep bool, obs func(sweep.Job) core.Observer) []sweep.Outcome {
	outs, err := sweep.Run(jobs, sweep.Options{KeepResults: keep, Observer: obs})
	if err != nil {
		panic(err)
	}
	return outs
}
