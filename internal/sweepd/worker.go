package sweepd

// worker.go is the client side: a Worker claims shards, runs them
// through the unchanged sweep scheduler (per-worker arenas, netstore
// disk tier — sweep.Options carries all of it), and
// streams each finished job's Record back as it completes while a
// heartbeat keeps the lease alive through long jobs. Losing the lease
// (HTTP 409 on any call) cancels the shard's context, which drains
// exactly like a Ctrl-C'd cmd/sweep — in-flight jobs finish and report,
// the rest are abandoned for whichever worker holds the lease now.
// Every coordinator call retries transient failures under exponential
// backoff with jitter; only a lease loss and a context cancellation are
// terminal.

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sweep"
)

// WorkerOptions configures a Worker.
type WorkerOptions struct {
	// Coordinator is the coordinator's base URL (http://host:port).
	Coordinator string
	// Name identifies this worker in leases, /status, and run-logs
	// ("" derives host.pid).
	Name string
	// Opts is the local execution configuration — Workers, RunWorkers,
	// Telemetry, RunLog all apply per shard. Cache serves every shard
	// the worker runs (nil: NewWorker builds one NetCache for the
	// worker's life, bound to Telemetry), so a topology that later
	// shards or stolen suffixes share is built once. Store and Progress
	// are owned by the worker loop (results belong to the coordinator's
	// store).
	Opts sweep.Options
	// Client is the HTTP client (nil: a default client with no blanket
	// Timeout — deadlines are per request, per endpoint; see
	// DefaultCallTimeout and DefaultReportTimeout).
	Client *http.Client
	// Retries is how many times a transient coordinator failure is
	// retried per call (0: 5).
	Retries int
	// Backoff is the first retry delay, doubled per attempt with ±50%
	// jitter (0: 200 ms).
	Backoff time.Duration
	// Poll is the idle claim interval when the server sends no hint
	// (0: 500 ms).
	Poll time.Duration
	// MaxOffline is how long the worker keeps polling an unreachable
	// coordinator before draining and exiting resumably (0: 90 s;
	// negative: forever).
	MaxOffline time.Duration

	// OnOutcome, when non-nil, observes every job outcome the worker
	// produces, before it is reported (tests and progress displays).
	OnOutcome func(sweep.Outcome)
}

// Worker runs the claim/run/report loop against one coordinator.
type Worker struct {
	o  WorkerOptions
	c  *client
	mu sync.Mutex
	// shardsRun counts shards this worker completed (tests).
	shardsRun int
}

// NewWorker builds a worker; see WorkerOptions for defaults.
func NewWorker(o WorkerOptions) *Worker {
	if o.Name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		o.Name = fmt.Sprintf("%s.%d", host, os.Getpid())
	}
	if o.Poll <= 0 {
		o.Poll = 500 * time.Millisecond
	}
	if o.MaxOffline == 0 {
		o.MaxOffline = 90 * time.Second
	}
	if o.Opts.Cache == nil {
		o.Opts.Cache = sweep.NewNetCache(0)
		o.Opts.Cache.SetTelemetry(o.Opts.Telemetry)
	}
	return &Worker{o: o, c: newClient(o.Coordinator, o.Client,
		o.Retries, o.Backoff, o.Opts.Telemetry)}
}

// Name returns the worker's lease identity.
func (w *Worker) Name() string { return w.o.Name }

// ShardsCompleted returns how many shards this worker has completed.
func (w *Worker) ShardsCompleted() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.shardsRun
}

// Run claims and executes shards until the coordinator reports the
// sweep done (returns nil), ctx is canceled (returns ctx's error after
// draining the current shard), or the coordinator stays unreachable
// past MaxOffline — in which case Run returns an error wrapping
// ErrUnreachable after draining, and a later restart of the same
// worker resumes cleanly: all sweep state lives with the coordinator.
func (w *Worker) Run(ctx context.Context) error {
	var offlineSince time.Time
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var resp ClaimResponse
		if err := w.c.post(ctx, "/claim", ClaimRequest{Worker: w.o.Name}, &resp); err != nil {
			if !isUnreachable(err) {
				return fmt.Errorf("sweepd: claim: %w", err)
			}
			// The coordinator may be mid-restart (crash recovery):
			// keep polling inside the offline budget, give up — with
			// everything already reported safe in its store — past it.
			now := time.Now()
			if offlineSince.IsZero() {
				offlineSince = now
			}
			if w.o.MaxOffline >= 0 && now.Sub(offlineSince) > w.o.MaxOffline {
				return fmt.Errorf("sweepd: coordinator offline for %s: %w",
					now.Sub(offlineSince).Round(time.Second), ErrUnreachable)
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(w.o.Poll):
			}
			continue
		}
		offlineSince = time.Time{}
		switch {
		case resp.Done:
			return nil
		case resp.Shard == nil:
			wait := w.o.Poll
			if resp.RetryMS > 0 {
				wait = time.Duration(resp.RetryMS) * time.Millisecond
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(wait):
			}
		default:
			if err := w.runShard(ctx, resp.Shard); err != nil {
				return err
			}
		}
	}
}

// runShard executes one claimed shard. Neither lease loss nor an
// unreachable coordinator is an error here — both abandon the shard
// mid-drain and send the loop back to claiming (where the offline
// budget decides whether to keep polling); only ctx cancellation
// propagates. Records that could not be delivered are simply never
// accounted: the shard's lease expires and the work reassigns.
func (w *Worker) runShard(ctx context.Context, shard *ShardClaim) error {
	shardCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// jobsDone mirrors the scheduler's progress count for the Done/Total
	// fields heartbeats and reports piggyback; stolenSet collects keys
	// the coordinator cut out of this shard (work stealing) so the
	// scheduler sheds them unrun via Options.Drop. Learning about a
	// steal is best-effort — a job run anyway just reports a record the
	// coordinator refuses (or dedups), which is harmless by design.
	var jobsDone atomic.Int64
	var stolenMu sync.Mutex
	stolenSet := make(map[string]bool)
	noteStolen := func(keys []string) {
		if len(keys) == 0 {
			return
		}
		stolenMu.Lock()
		for _, k := range keys {
			stolenSet[k] = true
		}
		stolenMu.Unlock()
	}

	var lost, offline atomic.Bool
	abandon := func(err error) {
		if isLeaseLost(err) {
			lost.Store(true)
			cancel()
		}
		if isUnreachable(err) {
			// Burning CPU on jobs whose records cannot be delivered is
			// pointless; drain and let the claim loop wait it out.
			offline.Store(true)
			cancel()
		}
	}

	// Heartbeat at a third of the TTL: two beats may be lost before the
	// lease expires. Reports renew too; this covers jobs longer than
	// the TTL.
	hbEvery := time.Duration(shard.LeaseMS) * time.Millisecond / 3
	if hbEvery <= 0 {
		hbEvery = time.Second
	}
	hbStop := make(chan struct{})
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		t := time.NewTicker(hbEvery)
		defer t.Stop()
		for {
			select {
			case <-hbStop:
				return
			case <-shardCtx.Done():
				return
			case <-t.C:
				var resp HeartbeatResponse
				err := w.c.post(shardCtx, "/heartbeat", HeartbeatRequest{
					Worker: w.o.Name, Shard: shard.ID, Lease: shard.Lease,
					Done: int(jobsDone.Load()), Total: len(shard.Jobs),
				}, &resp)
				if err != nil {
					abandon(err)
					continue
				}
				noteStolen(resp.StolenKeys)
			}
		}
	}()

	// Streaming sender: outcomes queue as the scheduler's serial
	// Progress callback fires; the sender drains the queue greedily, so
	// one report carries however many jobs finished while the previous
	// report was in flight.
	outcomes := make(chan sweep.Outcome, len(shard.Jobs))
	var sendWG sync.WaitGroup
	sendWG.Add(1)
	go func() {
		defer sendWG.Done()
		for out := range outcomes {
			batch := []sweep.Outcome{out}
		drain:
			for {
				select {
				case more, ok := <-outcomes:
					if !ok {
						break drain
					}
					batch = append(batch, more)
				default:
					break drain
				}
			}
			req := ReportRequest{
				Worker: w.o.Name, Shard: shard.ID, Lease: shard.Lease,
				Done: int(jobsDone.Load()), Total: len(shard.Jobs),
			}
			for _, o := range batch {
				if o.Err != nil {
					req.Errors = append(req.Errors, JobError{
						Key: o.Job.Key(), Label: o.Job.Label(), Error: o.Err.Error(),
					})
					continue
				}
				req.Records = append(req.Records, sweep.Record{
					Key:     o.Job.Key(),
					Job:     o.Job,
					Summary: o.Summary,
					ElapsedMS: float64((o.Stages.CacheLookup + o.Stages.Run +
						o.Stages.Aggregate).Microseconds()) / 1000,
				})
			}
			// Report outside shardCtx: a drained in-flight job's record
			// is still worth delivering after a local cancel (though not
			// after a lease loss — the coordinator refuses it anyway).
			var resp ReportResponse
			if err := w.c.post(ctx, "/report", req, &resp); err != nil {
				abandon(err)
				continue
			}
			noteStolen(resp.StolenKeys)
		}
	}()

	opts := w.o.Opts
	opts.Store = nil
	opts.Drop = func(j sweep.Job) bool {
		stolenMu.Lock()
		defer stolenMu.Unlock()
		return stolenSet[j.Key()]
	}
	opts.Progress = func(done, total int, out sweep.Outcome) {
		jobsDone.Store(int64(done))
		if w.o.OnOutcome != nil {
			w.o.OnOutcome(out)
		}
		if out.Dropped {
			// A shed stolen job produced nothing to report; the thief
			// owns it now.
			return
		}
		outcomes <- out
	}
	_, runErr := sweep.RunContext(shardCtx, shard.Jobs, opts)

	close(outcomes)
	sendWG.Wait()
	close(hbStop)
	hbWG.Wait()

	if lost.Load() || offline.Load() {
		// The lease moved on (or the coordinator did): whatever we
		// reported is deduped, the rest reassigns. Back to claiming.
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	// A non-nil runErr here is a job-level failure: it already rode the
	// reports as a JobError (the scheduler fires every job's Progress
	// callback), so the shard still completes — the coordinator accounts
	// errored jobs as final.
	_ = runErr
	err := w.c.post(ctx, "/complete", CompleteRequest{
		Worker: w.o.Name, Shard: shard.ID, Lease: shard.Lease,
	}, &OKResponse{})
	if err != nil {
		if isLeaseLost(err) || isUnreachable(err) {
			// An undeliverable complete is safe to walk away from: the
			// lease expires and the next claimant finds every job
			// reported, auto-completing the shard without recompute.
			return nil
		}
		return fmt.Errorf("sweepd: complete shard %d: %w", shard.ID, err)
	}
	w.mu.Lock()
	w.shardsRun++
	w.mu.Unlock()
	return nil
}
