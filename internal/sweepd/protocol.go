// Package sweepd is the distributed sweep sharding service (DESIGN §5,
// ROADMAP item 1): a coordinator expands a Spec once, resolves store
// hits up front exactly as sweep.Run does, partitions the pending jobs
// into contiguous ranges of the (topology key, Job.Key()) order, so a
// shard holds whole topologies, and serves those shards over HTTP with
// lease-based assignment. Worker processes (the same binary in
// -worker mode) claim a shard, run it through the existing scheduler —
// per-worker arenas and netstore disk tier unchanged — stream Records
// back, and heartbeat; a lease that expires is reassigned to the next
// claimant, so worker death is survived by the same resume semantics
// an interrupted single-process sweep uses: the coordinator
// refilters a reassigned shard against the store, and duplicate results
// dedup by content key.
//
// The invariant the whole design leans on is inherited from PR 1:
// aggregates fold in expansion order from content-addressed records, so
// the merged store's aggregates are byte-identical regardless of shard
// count, worker count, or how many times a shard was retried
// (TestShardedAggregatesByteIdentical pins it, including a mid-shard
// worker kill).
package sweepd

import "repro/internal/sweep"

// Protocol: JSON request/response bodies over plain HTTP POST. Every
// lease-scoped call carries (Worker, Shard, Lease); a stale or stolen
// lease is answered with HTTP 409, which the client surfaces as
// ErrLeaseLost — never retried, the worker abandons the shard and goes
// back to claiming.

// ClaimRequest asks for a shard assignment.
type ClaimRequest struct {
	Worker string `json:"worker"`
}

// ClaimResponse carries at most one of: a shard to run, a done flag
// (every shard complete — the worker exits), or a retry hint (all
// remaining shards are leased to live workers — poll again).
type ClaimResponse struct {
	Done    bool        `json:"done,omitempty"`
	RetryMS int64       `json:"retry_ms,omitempty"`
	Shard   *ShardClaim `json:"shard,omitempty"`
}

// ShardClaim is one leased shard: the jobs still pending (the
// coordinator filters out every key its store already holds, which is
// how a reassigned shard resumes instead of recomputing), the lease
// token to echo on every subsequent call, and the lease TTL the worker
// must heartbeat inside.
type ShardClaim struct {
	ID      int         `json:"id"`
	Lease   int64       `json:"lease"`
	LeaseMS int64       `json:"lease_ms"`
	Jobs    []sweep.Job `json:"jobs"`
}

// HeartbeatRequest renews a lease. Reports renew implicitly; explicit
// heartbeats cover jobs that run longer than the TTL. Done/Total carry
// the worker's per-shard progress (jobs finished locally vs. jobs in
// the claim) so the coordinator can see staleness before the lease
// lapses; zero values mean "not reported" and are omitted on the wire,
// keeping pre-progress workers' requests byte-identical.
type HeartbeatRequest struct {
	Worker string `json:"worker"`
	Shard  int    `json:"shard"`
	Lease  int64  `json:"lease"`
	Done   int    `json:"done,omitempty"`
	Total  int    `json:"total,omitempty"`
}

// HeartbeatResponse acknowledges a renewal. StolenKeys lists job keys
// the coordinator has cut out of the shard since the claim (work
// stealing); the worker should shed them unrun. Empty when stealing is
// off, which keeps the body identical to the old OKResponse bytes.
type HeartbeatResponse struct {
	OK         bool     `json:"ok"`
	StolenKeys []string `json:"stolen_keys,omitempty"`
}

// JobError reports a job that executed and failed (as opposed to one
// the worker never reached — those stay pending and reassign).
type JobError struct {
	Key   string `json:"key"`
	Label string `json:"label,omitempty"`
	Error string `json:"error"`
}

// ReportRequest streams completed work back: records for jobs that
// succeeded, errors for jobs that failed. A valid report renews the
// shard's lease. Done/Total piggyback the same per-shard progress as
// HeartbeatRequest (omitted when zero).
type ReportRequest struct {
	Worker  string         `json:"worker"`
	Shard   int            `json:"shard"`
	Lease   int64          `json:"lease"`
	Records []sweep.Record `json:"records,omitempty"`
	Errors  []JobError     `json:"errors,omitempty"`
	Done    int            `json:"done,omitempty"`
	Total   int            `json:"total,omitempty"`
}

// ReportResponse accounts the report: Accepted records were appended to
// the store, Duplicates were already there (a reassigned shard's first
// worker got them in before dying), Rejected failed the key integrity
// check (Record.Key must equal Record.Job.Key()). Stolen counts records
// for jobs cut out of this shard by a steal — the record was not
// accepted under this shard (the thief owns the job now; if the thief
// already reported it the result deduped instead), and StolenKeys names
// every such key so the victim can stop running the rest of the stolen
// suffix.
type ReportResponse struct {
	Accepted   int      `json:"accepted"`
	Duplicates int      `json:"duplicates,omitempty"`
	Rejected   int      `json:"rejected,omitempty"`
	Stolen     int      `json:"stolen,omitempty"`
	StolenKeys []string `json:"stolen_keys,omitempty"`
}

// CompleteRequest marks a shard finished. The coordinator verifies every
// job in the shard is accounted (reported or errored) and syncs the
// store to stable storage before acking — a machine crash after the ack
// cannot lose records the worker was told are durable.
type CompleteRequest struct {
	Worker string `json:"worker"`
	Shard  int    `json:"shard"`
	Lease  int64  `json:"lease"`
}

// OKResponse is the generic acknowledgment body.
type OKResponse struct {
	OK bool `json:"ok"`
}
