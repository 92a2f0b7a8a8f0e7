package sweepd

// coordinator.go is the server side of the sharding service. A
// Coordinator owns the canonical job list and the one merged store:
// store hits are resolved up front (exactly as sweep.Run does, with the
// same run-log discipline — sweep_start first, then the buffered
// skips), the remainder is partitioned into contiguous ranges of the
// (topology key, job key) order, so each shard holds whole topologies
// (sweep.PartitionByKey), and shards are served over HTTP under leases.
// Every record a worker streams back is integrity-checked
// (Key == Job.Key()), deduplicated against the store, appended, and
// folded into the sweep.Monitor — so /status, the run-log, and the
// end-of-sweep breakdown keep working fleet-wide, and the final
// aggregates fold in expansion order from Outcomes just as a
// single-process sweep's do.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/sweep"
)

// DefaultShards is the shard count when Config leaves it zero: enough
// shards that a handful of workers stay busy and a death forfeits at
// most one shard's progress-in-flight, few enough that claim traffic is
// noise.
const DefaultShards = 8

// DefaultLeaseTTL is the lease horizon when Config leaves it zero.
const DefaultLeaseTTL = 15 * time.Second

// DefaultStealMin is the minimum unreported remainder (in jobs) a
// shard must hold to be a steal victim. A remainder of 1 is never
// split: there is no suffix to cut that leaves the victim any retained
// work.
const DefaultStealMin = 2

// retryMS is the poll hint served when every remaining shard is leased.
const retryMS = 500

// Config parameterizes a Coordinator.
type Config struct {
	// Name labels the sweep (the Monitor's spec name).
	Name string
	// Store is the merged result store (required). The coordinator is
	// its only writer; workers never see it.
	Store *sweep.Store
	// Shards is the number of shards the pending jobs are cut into
	// (0: DefaultShards).
	Shards int
	// LeaseTTL is how long a silent worker keeps a shard before it is
	// reassigned (0: DefaultLeaseTTL).
	LeaseTTL time.Duration
	// Monitor folds fleet-wide progress (nil: a fresh one over the job
	// list). Its Status is embedded in /status.
	Monitor *sweep.Monitor
	// Telemetry receives the coordinator counters (nil: obs.Default).
	Telemetry *obs.Registry
	// RunLog receives coordinator lifecycle events (nil: disabled).
	RunLog *obs.RunLog
	// Journal is the crash-recovery journal (nil: epoch fencing off, as
	// for an ephemeral in-test coordinator). When set, NewCoordinator
	// bumps its epoch and persists before serving: lease tokens embed
	// the epoch, so tokens from a pre-crash incarnation 409 instead of
	// colliding, and the journal's recorded shard count overrides
	// Config.Shards so a restart re-partitions the remaining keyspace
	// with the original geometry (journaled steal cuts replay on top).
	Journal *Journal
	// StealAfter is how long a shard must go without progress before it
	// counts as straggling and an idle claimer may split off its
	// unreported suffix (0: LeaseTTL/2).
	StealAfter time.Duration

	// clock overrides time.Now for lease-expiry tests.
	clock func() time.Time
}

// shardMeta is the coordinator's per-shard progress view, fed by the
// Done/Total fields workers piggyback on heartbeats and reports plus
// the records they land. It exists for observability (/status rows)
// and as the steal policy's staleness signal; nothing here affects
// which records are accepted.
type shardMeta struct {
	done       int       // worker-reported jobs finished under the current claim
	total      int       // worker-reported claim size
	lastReport time.Time // last heartbeat/report touching this shard
	// lastAdvance is the last time this shard made observable progress
	// (reported done count grew, or a record/error was accounted). A
	// shard whose lastAdvance trails the fleet's by StealAfter is a
	// steal victim.
	lastAdvance time.Time
	// stolenKeys are job keys cut out of this shard since its current
	// lease; piggybacked on heartbeat/report responses so the victim
	// sheds them unrun.
	stolenKeys []string
}

// Coordinator serves shards of one expanded job list and folds the
// fleet's results back into one store and one Outcome list.
type Coordinator struct {
	cfg    Config
	jobs   []sweep.Job
	keys   []string         // job index -> content key (Job.Key, hashed once)
	keyIdx map[string][]int // content key -> job indices (dup keys: all)
	leases *leaseTable
	mon    *sweep.Monitor
	start  time.Time

	mu        sync.Mutex
	shards    [][]int // shard -> job indices (suffixes move on split)
	meta      []shardMeta
	jobShard  []int  // job index -> owning shard (-1: resolved up front)
	stolen    []bool // job was cut out of its original shard by a steal
	fleet     time.Time
	outs      []sweep.Outcome
	accounted []bool
	done      int // accounted jobs, store hits included
	resumed   int
	errs      int
	finished  bool
	aborted   bool
	doneCh    chan struct{}

	served         *obs.Counter // "sweepd.shards.served"
	reassigned     *obs.Counter // "sweepd.shards.reassigned"
	completed      *obs.Counter // "sweepd.shards.completed"
	splits         *obs.Counter // "sweepd.shards.split"
	jobsStolen     *obs.Counter // "sweepd.jobs.stolen"
	stealsRejected *obs.Counter // "sweepd.steals.rejected"
	recAccepted    *obs.Counter // "sweepd.records.accepted"
	recDuplicate   *obs.Counter // "sweepd.records.duplicate"
	recRejected    *obs.Counter // "sweepd.records.rejected"
	workersAlive   *obs.Gauge   // "sweepd.workers.alive"
}

// now is the coordinator's clock (injectable for tests).
func (c *Coordinator) now() time.Time {
	if c.cfg.clock != nil {
		return c.cfg.clock()
	}
	return time.Now()
}

// NewCoordinator builds a coordinator over jobs. Store hits are
// resolved immediately: their outcomes are final before any worker
// connects, and a coordinator whose store already holds everything is
// born finished.
func NewCoordinator(jobs []sweep.Job, cfg Config) (*Coordinator, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("sweepd: coordinator needs a store")
	}
	if cfg.Shards <= 0 {
		cfg.Shards = DefaultShards
	}
	// A journaled restart must re-partition with the geometry the first
	// incarnation used, whatever today's flag says: shard indices in
	// workers' still-live claims are meaningless otherwise.
	if cfg.Journal != nil && cfg.Journal.Shards > 0 {
		cfg.Shards = cfg.Journal.Shards
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	if cfg.StealAfter <= 0 {
		cfg.StealAfter = cfg.LeaseTTL / 2
	}
	if cfg.Telemetry == nil {
		cfg.Telemetry = obs.Default
	}
	if cfg.Monitor == nil {
		cfg.Monitor = sweep.NewMonitor(cfg.Name, len(jobs), nil, cfg.Telemetry)
	}

	c := &Coordinator{
		cfg:       cfg,
		jobs:      jobs,
		keys:      make([]string, len(jobs)),
		keyIdx:    make(map[string][]int, len(jobs)),
		mon:       cfg.Monitor,
		start:     time.Now(),
		outs:      make([]sweep.Outcome, len(jobs)),
		accounted: make([]bool, len(jobs)),
		jobShard:  make([]int, len(jobs)),
		stolen:    make([]bool, len(jobs)),
		doneCh:    make(chan struct{}),

		served:         cfg.Telemetry.Counter("sweepd.shards.served"),
		reassigned:     cfg.Telemetry.Counter("sweepd.shards.reassigned"),
		completed:      cfg.Telemetry.Counter("sweepd.shards.completed"),
		splits:         cfg.Telemetry.Counter("sweepd.shards.split"),
		jobsStolen:     cfg.Telemetry.Counter("sweepd.jobs.stolen"),
		stealsRejected: cfg.Telemetry.Counter("sweepd.steals.rejected"),
		recAccepted:    cfg.Telemetry.Counter("sweepd.records.accepted"),
		recDuplicate:   cfg.Telemetry.Counter("sweepd.records.duplicate"),
		recRejected:    cfg.Telemetry.Counter("sweepd.records.rejected"),
		workersAlive:   cfg.Telemetry.Gauge("sweepd.workers.alive"),
	}

	// Resolve store hits up front, buffering skip events so the run-log
	// opens with sweep_start (the runner's lifecycle ordering).
	var pending, skipped []int
	for i, j := range jobs {
		key := j.Key()
		c.keys[i] = key
		c.keyIdx[key] = append(c.keyIdx[key], i)
		if rec, ok := cfg.Store.Lookup(key); ok {
			c.outs[i] = sweep.Outcome{Job: j, Summary: rec.Summary, FromStore: true, Worker: -1}
			c.accounted[i] = true
			c.done++
			c.resumed++
			skipped = append(skipped, i)
			continue
		}
		pending = append(pending, i)
	}
	c.shards = sweep.PartitionByKey(jobs, c.keys, pending, cfg.Shards)
	// Replay journaled steal cuts on top of the base partition: a
	// coordinator that crashed mid-split comes back with the post-split
	// geometry, under the bumped epoch. Cuts whose key is no longer
	// pending (the stolen job completed) replay as no-ops.
	if cfg.Journal != nil {
		for _, key := range cfg.Journal.Cuts {
			c.replayCut(key)
		}
	}
	for i := range c.jobShard {
		c.jobShard[i] = -1
	}
	for s, idxs := range c.shards {
		for _, i := range idxs {
			if c.jobShard[i] < 0 {
				c.jobShard[i] = s
			}
		}
	}
	boot := c.now()
	c.fleet = boot
	c.meta = make([]shardMeta, len(c.shards))
	for i := range c.meta {
		c.meta[i] = shardMeta{lastReport: boot, lastAdvance: boot}
	}
	// Fence this incarnation before any lease exists: a failed journal
	// save fails the boot, or a later crash could reuse the epoch and
	// hand a stale worker a colliding token.
	var epoch uint32
	if cfg.Journal != nil {
		if err := cfg.Journal.Bump(cfg.Shards); err != nil {
			return nil, err
		}
		epoch = cfg.Journal.Epoch
	}
	c.leases = newLeaseTable(len(c.shards), cfg.LeaseTTL, cfg.clock, epoch)

	_ = cfg.RunLog.Event("sweep_start", map[string]any{
		"jobs": len(jobs), "pending": len(pending),
		"resumed": len(skipped), "shards": len(c.shards),
		"epoch": epoch,
	})
	for pos, i := range skipped {
		_ = cfg.RunLog.Event("job_skip", map[string]any{
			"key": c.keys[i], "label": jobs[i].Label(),
		})
		c.mon.Observe(pos+1, len(jobs), c.outs[i])
	}
	if len(c.shards) == 0 {
		c.finish()
	}
	return c, nil
}

// Done is closed when every shard is complete (or the coordinator was
// aborted).
func (c *Coordinator) Done() <-chan struct{} { return c.doneCh }

// Finished reports completion without blocking.
func (c *Coordinator) Finished() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.finished
}

// Outcomes returns the outcome list in expansion order. Call after Done
// fires; earlier calls see whatever has been folded so far.
func (c *Coordinator) Outcomes() []sweep.Outcome {
	c.mu.Lock()
	defer c.mu.Unlock()
	outs := make([]sweep.Outcome, len(c.outs))
	copy(outs, c.outs)
	return outs
}

// Errors counts jobs whose workers reported a failure.
func (c *Coordinator) Errors() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.errs
}

// Abort marks the sweep ended without completion: the run-log gets its
// sweep_end with aborted:true and Done fires. In-flight worker calls
// after an abort are answered done, so the fleet drains.
func (c *Coordinator) Abort() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.finished {
		return
	}
	c.aborted = true
	c.finishLocked()
}

// finish closes out the sweep (all shards complete).
func (c *Coordinator) finish() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.finishLocked()
}

func (c *Coordinator) finishLocked() {
	if c.finished {
		return
	}
	c.finished = true
	end := map[string]any{
		"ran": c.done - c.resumed, "resumed": c.resumed, "errors": c.errs,
		"elapsed_ms": float64(time.Since(c.start).Microseconds()) / 1000,
	}
	if c.aborted {
		end["aborted"] = true
	}
	_ = c.cfg.RunLog.Event("sweep_end", end)
	close(c.doneCh)
}

// pendingJobs filters a shard down to jobs not yet accounted — the
// resume semantics a reassigned shard inherits.
func (c *Coordinator) pendingJobs(shard int) []sweep.Job {
	c.mu.Lock()
	defer c.mu.Unlock()
	var jobs []sweep.Job
	for _, i := range c.shards[shard] {
		if !c.accounted[i] {
			jobs = append(jobs, c.jobs[i])
		}
	}
	return jobs
}

// replayCut re-applies one journaled steal cut to the freshly derived
// partition (boot-time only, no locking). The journal records cuts as
// the first stolen job's content key because shard indices don't
// survive a restart: the successor partitions only the still-pending
// jobs, so the same key sits at a different position. A key that is no
// longer pending, or that already begins a shard, replays vacuously.
func (c *Coordinator) replayCut(key string) {
	for s := range c.shards {
		for p, i := range c.shards[s] {
			if c.keys[i] != key {
				continue
			}
			if p == 0 {
				return
			}
			suffix := append([]int(nil), c.shards[s][p:]...)
			c.shards[s] = c.shards[s][:p:p]
			c.shards = append(c.shards, suffix)
			for _, j := range suffix {
				c.stolen[j] = true
			}
			return
		}
	}
}

// noteProgressLocked folds a worker's piggybacked Done/Total for shard
// into the coordinator's per-shard view; the caller holds c.mu. A
// growing done count is observable progress and advances the shard's
// (and the fleet's) staleness clock.
func (c *Coordinator) noteProgressLocked(shard, done, total int) {
	if shard < 0 || shard >= len(c.meta) {
		return
	}
	m := &c.meta[shard]
	now := c.now()
	m.lastReport = now
	if total > 0 {
		m.total = total
	}
	if done > m.done {
		m.done = done
		c.advanceLocked(shard, now)
	}
}

// advanceLocked stamps observable progress on shard; caller holds c.mu.
func (c *Coordinator) advanceLocked(shard int, now time.Time) {
	if shard < 0 || shard >= len(c.meta) {
		return
	}
	c.meta[shard].lastAdvance = now
	c.fleet = now
}

// trySteal is the steal policy, consulted when an idle worker's claim
// found nothing claimable. It picks the straggler holding the most
// unreported work — a live-leased shard whose remainder is at least
// DefaultStealMin, that has not advanced for StealAfter, and that the
// rest of the fleet has advanced past — journals the cut (write-ahead: a
// crash between the append and the in-memory split recovers
// post-split), then cuts the victim's unreported suffix into a fresh
// pending shard the caller's next Claim will win. The victim keeps its
// lease and its retained prefix; only its reports for stolen jobs are
// refused, and only per-job. Returns whether a split happened.
//
// The policy is deliberately conservative: a wrong steal costs only
// duplicate execution (dedup-by-Job.Key at append time absorbs it), but
// an eager one wastes CPU on a worker that was about to report.
func (c *Coordinator) trySteal(thief string) bool {
	live := c.leases.Leased()
	if len(live) == 0 {
		return false
	}
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	victim, victimWorker, best := -1, "", 0
	considered := false
	for _, l := range live {
		if l.shard >= len(c.shards) {
			continue
		}
		remaining := 0
		for _, i := range c.shards[l.shard] {
			if !c.accounted[i] {
				remaining++
			}
		}
		if remaining > 0 {
			considered = true
		}
		if remaining < DefaultStealMin {
			continue
		}
		m := &c.meta[l.shard]
		if now.Sub(m.lastAdvance) < c.cfg.StealAfter {
			continue
		}
		// Fleet-ahead check: somebody else advanced after this shard
		// last did. A uniformly idle fleet (nothing has progressed
		// anywhere) is not straggling, it is starting up.
		if !c.fleet.After(m.lastAdvance) {
			continue
		}
		if remaining > best {
			victim, victimWorker, best = l.shard, l.worker, remaining
		}
	}
	if victim < 0 {
		if considered {
			c.stealsRejected.Inc()
		}
		return false
	}
	// Cut half the unreported remainder, as the positional suffix that
	// contains k unaccounted jobs and begins at one (the cut key must be
	// pending for a restart's replay to find it). k <= remaining-1, so
	// the victim always retains at least one unaccounted job.
	k := best / 2
	if k < 1 {
		k = 1
	}
	list := c.shards[victim]
	p, cnt := len(list)-1, 0
	for ; p >= 0; p-- {
		if !c.accounted[list[p]] {
			cnt++
			if cnt == k {
				break
			}
		}
	}
	if p <= 0 {
		return false
	}
	cutKey := c.keys[list[p]]
	if c.cfg.Journal != nil {
		if err := c.cfg.Journal.AppendCut(cutKey); err != nil {
			// The cut isn't durable; applying it anyway would let a
			// crash resurrect pre-split geometry under live post-split
			// leases. Abandon the steal.
			return false
		}
	}
	suffix := append([]int(nil), list[p:]...)
	c.shards[victim] = list[:p:p]
	newShard := c.leases.Add()
	c.shards = append(c.shards, suffix)
	c.meta = append(c.meta, shardMeta{lastReport: now, lastAdvance: now})
	stolenJobs := 0
	for _, i := range suffix {
		c.jobShard[i] = newShard
		if !c.accounted[i] {
			c.stolen[i] = true
			c.meta[victim].stolenKeys = append(c.meta[victim].stolenKeys, c.keys[i])
			stolenJobs++
		}
	}
	c.splits.Inc()
	c.jobsStolen.Add(int64(stolenJobs))
	_ = c.cfg.RunLog.Event("shard_split", map[string]any{
		"shard": victim, "worker": victimWorker, "thief": thief,
		"new_shard": newShard, "cut": cutKey, "jobs": stolenJobs,
		"epoch": c.leases.Epoch(),
	})
	return true
}

// claim implements shard assignment: hand out the first claimable
// shard that still has pending work, auto-completing any claimable
// shard whose jobs were all reported by a previous (dead) owner.
func (c *Coordinator) claim(worker string) ClaimResponse {
	for {
		if c.Finished() || c.leases.Done() {
			if !c.Finished() {
				c.finish()
			}
			return ClaimResponse{Done: true}
		}
		shard, token, reassigned, ok := c.leases.Claim(worker)
		c.workersAlive.Set(int64(c.leases.Alive()))
		if !ok {
			if c.leases.Done() {
				c.finish()
				return ClaimResponse{Done: true}
			}
			// An idle worker and no claimable shard is exactly the
			// straggler window: try to split a stalled shard's suffix
			// rather than making the claimer wait out a healthy-looking
			// lease. A successful split loops back into Claim.
			if c.trySteal(worker) {
				continue
			}
			return ClaimResponse{RetryMS: retryMS}
		}
		c.served.Inc()
		// A fresh claim resets the shard's progress view: done/total are
		// the claimant's local counts, staleness starts now, and stolen
		// keys from a previous holder's split are not this worker's —
		// its claim never contained them.
		c.mu.Lock()
		if shard >= 0 && shard < len(c.meta) {
			now := c.now()
			c.meta[shard] = shardMeta{lastReport: now, lastAdvance: now}
		}
		c.mu.Unlock()
		if reassigned {
			c.reassigned.Inc()
			_ = c.cfg.RunLog.Event("shard_reassign", map[string]any{
				"shard": shard, "worker": worker,
			})
		}
		jobs := c.pendingJobs(shard)
		if len(jobs) == 0 {
			// A previous owner reported everything, then died before
			// completing: nothing to recompute, retire the shard here.
			_ = c.completeShard(worker, shard, token)
			continue
		}
		_ = c.cfg.RunLog.Event("shard_claim", map[string]any{
			"shard": shard, "worker": worker, "jobs": len(jobs),
			"reassigned": reassigned,
		})
		return ClaimResponse{Shard: &ShardClaim{
			ID:      shard,
			Lease:   token,
			LeaseMS: c.cfg.LeaseTTL.Milliseconds(),
			Jobs:    jobs,
		}}
	}
}

// report folds a worker's streamed results in under its lease.
func (c *Coordinator) report(req ReportRequest) (ReportResponse, error) {
	// A valid report is also a heartbeat.
	if err := c.leases.Renew(req.Worker, req.Shard, req.Lease); err != nil {
		return ReportResponse{}, err
	}
	c.workersAlive.Set(int64(c.leases.Alive()))
	c.mu.Lock()
	c.noteProgressLocked(req.Shard, req.Done, req.Total)
	c.mu.Unlock()
	var resp ReportResponse
	for _, rec := range req.Records {
		idxs, ok := c.keyIdx[rec.Key]
		if !ok || rec.Key != rec.Job.Key() {
			resp.Rejected++
			c.recRejected.Inc()
			continue
		}
		c.mu.Lock()
		var fresh []int
		owned := false
		for _, i := range idxs {
			if c.accounted[i] {
				continue
			}
			fresh = append(fresh, i)
			if !c.stolen[i] || c.jobShard[i] == req.Shard {
				owned = true
			}
		}
		if len(fresh) == 0 {
			c.mu.Unlock()
			resp.Duplicates++
			c.recDuplicate.Inc()
			continue
		}
		// Per-job steal fencing: a record for a job cut out of the
		// reporting shard belongs to the thief now — refuse it without
		// touching the lease, so the victim's retained work still
		// lands. (The thief reporting the same key later is the fresh
		// accept; if it raced ahead, the victim hit the duplicate path
		// above instead.)
		if !owned {
			c.mu.Unlock()
			resp.Stolen++
			continue
		}
		// Persist before accounting: a record the coordinator failed to
		// append stays unaccounted, so its job reassigns rather than
		// silently evaporating from the store.
		if err := c.cfg.Store.Put(rec); err != nil {
			c.mu.Unlock()
			return resp, err
		}
		c.advanceLocked(req.Shard, c.now())
		for _, i := range fresh {
			out := sweep.Outcome{Job: c.jobs[i], Summary: rec.Summary, Worker: -1}
			// The worker's wall clock for the job rides ElapsedMS; fold
			// it into the run stage so the fleet-wide breakdown and
			// /status stay meaningful.
			out.Stages.Run = time.Duration(rec.ElapsedMS * float64(time.Millisecond))
			c.outs[i] = out
			c.accounted[i] = true
			c.done++
			c.mon.Observe(c.done, len(c.jobs), out)
			_ = c.cfg.RunLog.Event("job_done", map[string]any{
				"key": rec.Key, "label": c.jobs[i].Label(),
				"worker": req.Worker, "shard": req.Shard, "ms": rec.ElapsedMS,
			})
		}
		c.mu.Unlock()
		resp.Accepted++
		c.recAccepted.Inc()
	}
	for _, je := range req.Errors {
		idxs, ok := c.keyIdx[je.Key]
		if !ok {
			resp.Rejected++
			c.recRejected.Inc()
			continue
		}
		c.mu.Lock()
		for _, i := range idxs {
			if c.accounted[i] {
				continue
			}
			// A stolen job's failure is the thief's to report (or
			// succeed at); the victim's error for it is dropped like
			// its records are.
			if c.stolen[i] && c.jobShard[i] != req.Shard {
				continue
			}
			out := sweep.Outcome{Job: c.jobs[i], Err: errors.New(je.Error), Worker: -1}
			c.outs[i] = out
			c.accounted[i] = true
			c.done++
			c.errs++
			c.advanceLocked(req.Shard, c.now())
			c.mon.Observe(c.done, len(c.jobs), out)
			_ = c.cfg.RunLog.Event("job_done", map[string]any{
				"key": je.Key, "label": c.jobs[i].Label(),
				"worker": req.Worker, "shard": req.Shard, "err": je.Error,
			})
		}
		c.mu.Unlock()
	}
	c.mu.Lock()
	if req.Shard >= 0 && req.Shard < len(c.meta) {
		if keys := c.meta[req.Shard].stolenKeys; len(keys) > 0 {
			resp.StolenKeys = append([]string(nil), keys...)
		}
	}
	c.mu.Unlock()
	return resp, nil
}

// completeShard retires a shard under its lease: verify every job is
// accounted, sync the store to stable storage, then ack.
func (c *Coordinator) completeShard(worker string, shard int, token int64) error {
	c.mu.Lock()
	// Bounds-check before indexing: the shard number came off the wire
	// (FuzzProtocolDecode found the panic this guards against). Under
	// c.mu because splits append shards.
	if shard < 0 || shard >= len(c.shards) {
		n := len(c.shards)
		c.mu.Unlock()
		return fmt.Errorf("%w: shard %d of %d", errNoShard, shard, n)
	}
	for _, i := range c.shards[shard] {
		if !c.accounted[i] {
			c.mu.Unlock()
			// Served as 409, not 500: a complete for a shard with
			// unreported jobs means the worker's reports were lost (a
			// dropped /report, a coordinator restart) — retrying the
			// complete cannot ever succeed, but abandoning the lease
			// lets the shard reassign and the missing jobs recompute.
			return fmt.Errorf("%w: shard %d incomplete: job %s unreported",
				ErrLeaseLost, shard, c.jobs[i].Label())
		}
	}
	c.mu.Unlock()
	// The durability half of the ack: records this shard reported are on
	// stable storage before the worker is told the shard is done.
	if err := c.cfg.Store.Sync(); err != nil {
		return err
	}
	if err := c.leases.Complete(worker, shard, token); err != nil {
		return err
	}
	c.completed.Inc()
	_ = c.cfg.RunLog.Event("shard_complete", map[string]any{
		"shard": shard, "worker": worker,
	})
	if c.leases.Done() {
		c.finish()
	}
	return nil
}

// ShardTally is the /status shard accounting.
type ShardTally struct {
	Total     int   `json:"total"`
	Pending   int   `json:"pending"`
	Active    int   `json:"active"`
	Completed int   `json:"completed"`
	Served    int64 `json:"served"`
	// Reassigned counts leases handed out for shards a previous worker
	// had held — each one is a survived worker death (or stall).
	Reassigned       int64 `json:"reassigned"`
	RecordsAccepted  int64 `json:"records_accepted"`
	RecordsDuplicate int64 `json:"records_duplicate"`
	RecordsRejected  int64 `json:"records_rejected,omitempty"`
	// Split counts straggler shards whose unreported suffix was cut
	// into a new shard; JobsStolen the jobs those cuts moved;
	// StealsRejected the steal evaluations that found unfinished work
	// but no eligible victim.
	Split          int64 `json:"split,omitempty"`
	JobsStolen     int64 `json:"jobs_stolen,omitempty"`
	StealsRejected int64 `json:"steals_rejected,omitempty"`
	// Detail is the per-shard progress view: size, accounted remainder,
	// the worker-reported done/total, and last-report age.
	Detail []ShardStatus `json:"detail,omitempty"`
}

// ShardStatus is one shard's /status row.
type ShardStatus struct {
	ID    int    `json:"id"`
	State string `json:"state"` // pending | active | done
	// Worker is the current (or last) lease holder.
	Worker string `json:"worker,omitempty"`
	// Jobs is the shard's current job-list length (splits shrink it);
	// Remaining counts those not yet accounted coordinator-side.
	Jobs      int `json:"jobs"`
	Remaining int `json:"remaining"`
	// Done/Total echo the lease holder's self-reported progress.
	Done  int `json:"done,omitempty"`
	Total int `json:"total,omitempty"`
	// LastReportMS is the age of the last heartbeat/report touching
	// this shard; StolenJobs counts jobs cut out of it by steals.
	LastReportMS float64 `json:"last_report_ms"`
	StolenJobs   int     `json:"stolen_jobs,omitempty"`
}

// WorkerInfo is one worker's liveness row.
type WorkerInfo struct {
	Name string `json:"name"`
	// SinceSeenMS is how long ago the worker last called in; Alive is
	// whether that is within one lease TTL.
	SinceSeenMS float64 `json:"since_seen_ms"`
	Alive       bool    `json:"alive"`
}

// Status is the coordinator's /status document: the familiar sweep
// Monitor document plus the shard and worker view.
type Status struct {
	Sweep  sweep.Status `json:"sweep"`
	Shards ShardTally   `json:"shards"`
	// Epoch is the coordinator's fencing generation: how many times a
	// coordinator has booted against this sweep's journal (0: no
	// journal). A bump between two /status polls is a crash+restart.
	Epoch   uint32       `json:"epoch,omitempty"`
	Workers []WorkerInfo `json:"workers,omitempty"`
	Done    bool         `json:"done"`
	Aborted bool         `json:"aborted,omitempty"`
}

// Status renders the live fleet view.
func (c *Coordinator) Status() Status {
	pending, active, done := c.leases.Counts()
	views := c.leases.View()
	c.workersAlive.Set(int64(c.leases.Alive()))
	now := c.now()

	c.mu.Lock()
	total := len(c.shards)
	n := len(c.shards)
	if len(views) < n {
		// A split can land between the two snapshots; trim to the
		// shorter view rather than index past it.
		n = len(views)
	}
	detail := make([]ShardStatus, 0, n)
	for i := 0; i < n; i++ {
		remaining := 0
		for _, j := range c.shards[i] {
			if !c.accounted[j] {
				remaining++
			}
		}
		m := &c.meta[i]
		detail = append(detail, ShardStatus{
			ID:           i,
			State:        views[i].state,
			Worker:       views[i].worker,
			Jobs:         len(c.shards[i]),
			Remaining:    remaining,
			Done:         m.done,
			Total:        m.total,
			LastReportMS: float64(now.Sub(m.lastReport).Microseconds()) / 1000,
			StolenJobs:   len(m.stolenKeys),
		})
	}
	c.mu.Unlock()

	s := Status{
		Sweep: c.mon.Status(),
		Epoch: c.leases.Epoch(),
		Shards: ShardTally{
			Total:            total,
			Pending:          pending,
			Active:           active,
			Completed:        done,
			Served:           c.served.Load(),
			Reassigned:       c.reassigned.Load(),
			RecordsAccepted:  c.recAccepted.Load(),
			RecordsDuplicate: c.recDuplicate.Load(),
			RecordsRejected:  c.recRejected.Load(),
			Split:            c.splits.Load(),
			JobsStolen:       c.jobsStolen.Load(),
			StealsRejected:   c.stealsRejected.Load(),
			Detail:           detail,
		},
	}
	workers := c.leases.Workers()
	names := make([]string, 0, len(workers))
	for name := range workers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		since := workers[name]
		s.Workers = append(s.Workers, WorkerInfo{
			Name:        name,
			SinceSeenMS: float64(since.Microseconds()) / 1000,
			Alive:       since <= c.cfg.LeaseTTL,
		})
	}
	c.mu.Lock()
	s.Done = c.finished
	s.Aborted = c.aborted
	c.mu.Unlock()
	return s
}

// Handler mounts the coordinator's HTTP surface: the lease protocol
// (/claim, /heartbeat, /report, /complete) and the /status document.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/claim", func(w http.ResponseWriter, r *http.Request) {
		var req ClaimRequest
		if !decode(w, r, &req) {
			return
		}
		writeJSON(w, c.claim(req.Worker))
	})
	mux.HandleFunc("/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req HeartbeatRequest
		if !decode(w, r, &req) {
			return
		}
		if err := c.leases.Renew(req.Worker, req.Shard, req.Lease); err != nil {
			leaseError(w, err)
			return
		}
		c.workersAlive.Set(int64(c.leases.Alive()))
		resp := HeartbeatResponse{OK: true}
		c.mu.Lock()
		c.noteProgressLocked(req.Shard, req.Done, req.Total)
		if req.Shard >= 0 && req.Shard < len(c.meta) {
			if keys := c.meta[req.Shard].stolenKeys; len(keys) > 0 {
				resp.StolenKeys = append([]string(nil), keys...)
			}
		}
		c.mu.Unlock()
		writeJSON(w, resp)
	})
	mux.HandleFunc("/report", func(w http.ResponseWriter, r *http.Request) {
		var req ReportRequest
		if !decode(w, r, &req) {
			return
		}
		resp, err := c.report(req)
		if err != nil {
			leaseError(w, err)
			return
		}
		writeJSON(w, resp)
	})
	mux.HandleFunc("/complete", func(w http.ResponseWriter, r *http.Request) {
		var req CompleteRequest
		if !decode(w, r, &req) {
			return
		}
		if err := c.completeShard(req.Worker, req.Shard, req.Lease); err != nil {
			leaseError(w, err)
			return
		}
		writeJSON(w, OKResponse{OK: true})
	})
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, c.Status())
	})
	return mux
}

// maxRequestBody bounds any protocol request body. The largest
// legitimate body is a /report batch; at a few hundred bytes per record
// this allows batches far beyond any real shard, while a hostile or
// corrupted Content-Length cannot make the decoder buffer unbounded.
const maxRequestBody = 64 << 20

// decode parses a protocol request body. Anything malformed — wrong
// method, oversized, truncated, or garbled JSON — is answered 4xx,
// never a panic and never a 5xx (FuzzProtocolDecode holds it to that).
func decode(w http.ResponseWriter, r *http.Request, into any) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return false
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBody)
	if err := json.NewDecoder(r.Body).Decode(into); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// leaseError maps lease losses to 409 (the client's abandon signal),
// nonexistent shards to 400 (malformed request, retrying cannot help),
// and everything else to 500 (retryable).
func leaseError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrLeaseLost):
		http.Error(w, err.Error(), http.StatusConflict)
	case errors.Is(err, errNoShard):
		http.Error(w, err.Error(), http.StatusBadRequest)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
