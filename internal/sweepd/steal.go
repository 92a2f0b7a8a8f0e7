package sweepd

// steal.go is the coordinator's work-stealing policy: when an idle
// worker asks for a shard and none is claimable, the coordinator may
// split a straggler's unreported suffix into a fresh shard and serve
// that instead of making the claimer wait for lease expiry. The policy
// is deliberately conservative — a victim must hold meaningfully more
// unreported work than the threshold AND have gone longer without
// progress than the rest of the fleet — because the cost of a wrong
// steal is only duplicate execution (dedup-by-Job.Key at append time
// absorbs it), but the cost of an eager one is wasted CPU on a worker
// that was about to report.

import (
	"fmt"
	"os"
	"sync"
)

// DefaultStealMin is the minimum unreported remainder (in jobs) a
// shard must hold to be a steal victim. A remainder of 1 is never
// split: there is no suffix to cut that leaves the victim any retained
// work.
const DefaultStealMin = 2

// ResolveSteal maps a -steal flag / REPRO_STEAL value to an enablement
// decision, using the same vocabulary as REPRO_NETSTORE:
// empty, "off", and "0" disable (the default — lease expiry remains
// the only reassignment path, bit-for-bit identical to the pre-steal
// coordinator); "on" and "1" enable.
func ResolveSteal(v string) (bool, error) {
	switch v {
	case "", "off", "0":
		return false, nil
	case "on", "1":
		return true, nil
	}
	return false, fmt.Errorf("sweepd: bad steal selector %q (want on|off)", v)
}

var envSteal = sync.OnceValue(func() bool {
	on, err := ResolveSteal(os.Getenv("REPRO_STEAL"))
	if err != nil {
		return false
	}
	return on
})

// EnvSteal resolves the REPRO_STEAL environment variable; unparseable
// values degrade to off — stealing is an optimization, never a
// prerequisite.
func EnvSteal() bool { return envSteal() }
