package sweepd

// journal_test.go pins the crash-recovery journal and the epoch fencing
// it exists for: the epoch is monotone across opens, saves are atomic,
// a corrupt journal refuses to load (resetting the epoch would un-fence
// stale workers), and — the point of the whole mechanism — a lease
// token issued before a coordinator restart is rejected with
// ErrLeaseLost by the successor, never silently honored.

import (
	"context"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/sweep"
)

func TestJournalZeroThenBump(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if j.Epoch != 0 || j.Shards != 0 {
		t.Fatalf("fresh journal = %+v, want zero", j)
	}
	if err := j.Bump(8); err != nil {
		t.Fatal(err)
	}
	if j.Epoch != 1 || j.Shards != 8 {
		t.Fatalf("after first bump = %+v, want epoch 1 shards 8", j)
	}

	// A reopen (the restarted coordinator) sees the persisted state and
	// bumps past it; the recorded geometry survives a changed request.
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if j2.Epoch != 1 || j2.Shards != 8 {
		t.Fatalf("reopened journal = %+v, want epoch 1 shards 8", j2)
	}
	if err := j2.Bump(16); err != nil {
		t.Fatal(err)
	}
	if j2.Epoch != 2 || j2.Shards != 8 {
		t.Fatalf("after second bump = %+v, want epoch 2, original shards 8", j2)
	}
}

func TestJournalCorruptRefusesLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	if err := os.WriteFile(path, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(path); err == nil {
		t.Fatal("corrupt journal loaded as zero state — stale workers un-fenced")
	}
}

func TestJournalSaveLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(filepath.Join(dir, "sweep.journal"))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Bump(4); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "sweep.journal" {
		t.Fatalf("journal dir = %v, want exactly sweep.journal", entries)
	}
}

// TestLeaseEpochFencing: tokens from a table with epoch E are rejected
// by a table with epoch E+1 over the same shards — the in-memory half
// of coordinator crash recovery.
func TestLeaseEpochFencing(t *testing.T) {
	clk := newFakeClock()
	old := newLeaseTable(2, time.Minute, clk.Now, 1)
	shard, staleToken, _, ok := old.Claim("w1")
	if !ok {
		t.Fatal("claim failed")
	}

	// Coordinator "crashes"; successor builds a fresh table at epoch 2.
	succ := newLeaseTable(2, time.Minute, clk.Now, 2)
	if err := succ.Renew("w1", shard, staleToken); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("stale-epoch renew = %v, want ErrLeaseLost", err)
	}
	// Even after the successor leases the same shard to someone, the old
	// token still cannot complete it.
	if _, _, _, ok := succ.Claim("w2"); !ok {
		t.Fatal("successor claim failed")
	}
	if err := succ.Complete("w1", shard, staleToken); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("stale-epoch complete = %v, want ErrLeaseLost", err)
	}
	// The fenced worker re-claims cleanly: shard 1 is still free.
	if _, tok, _, ok := succ.Claim("w1"); !ok || tok>>32 != 2 {
		t.Fatalf("re-claim after fencing: ok=%v token=%d, want epoch-2 token", ok, tok)
	}
}

func TestLeaseNoShardIsNotLeaseLost(t *testing.T) {
	clk := newFakeClock()
	lt := newLeaseTable(1, time.Minute, clk.Now, 0)
	err := lt.Renew("w", 7, 1)
	if !errors.Is(err, errNoShard) {
		t.Fatalf("out-of-range renew = %v, want errNoShard", err)
	}
	if errors.Is(err, ErrLeaseLost) {
		t.Fatal("errNoShard must not read as a lease race")
	}
}

// TestCoordinatorRestartFencesStaleToken drives the fencing end to end
// over HTTP: a worker claims from coordinator #1, the coordinator is
// replaced (same store, same journal), and the worker's held token gets
// 409 from coordinator #2 — the client maps that to ErrLeaseLost, which
// sends a real Worker back to claiming.
func TestCoordinatorRestartFencesStaleToken(t *testing.T) {
	dir := t.TempDir()
	jobs := testJobs(t)

	newCoord := func() (*Coordinator, *Journal) {
		t.Helper()
		store, err := sweep.OpenStore(filepath.Join(dir, "results.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { store.Close() })
		j, err := OpenJournal(filepath.Join(dir, "sweep.journal"))
		if err != nil {
			t.Fatal(err)
		}
		coord, err := NewCoordinator(jobs, Config{
			Name: "dist", Store: store, Shards: 4, Journal: j,
		})
		if err != nil {
			t.Fatal(err)
		}
		return coord, j
	}

	ctx := context.Background()
	c1, j1 := newCoord()
	if j1.Epoch != 1 {
		t.Fatalf("first boot epoch = %d, want 1", j1.Epoch)
	}
	srv1 := httptest.NewServer(c1.Handler())
	cl1 := newClient(srv1.URL, srv1.Client(), 1, time.Millisecond, nil)
	var resp ClaimResponse
	if err := cl1.post(ctx, "/claim", ClaimRequest{Worker: "w1"}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Shard == nil {
		t.Fatalf("claim = %+v, want a shard", resp)
	}
	shard, stale := resp.Shard.ID, resp.Shard.Lease
	if stale>>32 != 1 {
		t.Fatalf("token %d does not embed epoch 1", stale)
	}
	srv1.Close() // crash: no store close, no lease handover

	c2, j2 := newCoord()
	if j2.Epoch != 2 {
		t.Fatalf("second boot epoch = %d, want 2", j2.Epoch)
	}
	if got := c2.Status().Epoch; got != 2 {
		t.Fatalf("/status epoch = %d, want 2", got)
	}
	srv2 := httptest.NewServer(c2.Handler())
	defer srv2.Close()
	cl2 := newClient(srv2.URL, srv2.Client(), 1, time.Millisecond, nil)
	err := cl2.post(ctx, "/heartbeat", HeartbeatRequest{Worker: "w1", Shard: shard, Lease: stale}, &OKResponse{})
	if !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("stale heartbeat after restart = %v, want ErrLeaseLost", err)
	}
	err = cl2.post(ctx, "/report", ReportRequest{Worker: "w1", Shard: shard, Lease: stale}, &ReportResponse{})
	if !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("stale report after restart = %v, want ErrLeaseLost", err)
	}
	// And the fenced worker's recovery move works: a fresh claim under
	// the new epoch.
	var resp2 ClaimResponse
	if err := cl2.post(ctx, "/claim", ClaimRequest{Worker: "w1"}, &resp2); err != nil {
		t.Fatal(err)
	}
	if resp2.Shard == nil || resp2.Shard.Lease>>32 != 2 {
		t.Fatalf("re-claim = %+v, want an epoch-2 lease", resp2)
	}
}

// TestCoordinatorRestartRecoversJournaledSplit crashes the coordinator
// after a steal has been journaled and checks the successor recovers
// the post-split geometry: the cut key — not a shard index, which the
// re-derived partition would invalidate — is replayed against the
// successor's own partition of the remaining work, stale pre-crash
// tokens (the victim's and the thief's) are fenced, and a fresh fleet
// drains to byte-identical aggregates.
func TestCoordinatorRestartRecoversJournaledSplit(t *testing.T) {
	dir := t.TempDir()
	jobs := testJobs(t)
	baseOuts, baseMD := baseline(t, jobs)
	recs := summariesByKey(t, baseOuts)

	// Coordinator #1: three shards of 16 jobs → 5/5/6. The fast worker
	// holds and clears shards 0 and 1 while the slow one sits on the
	// 6-job shard 2 after reporting its first job; fast's next idle
	// claim steals half of its 5-job remainder. (The geometry is chosen
	// so the cut falls inside a shard of the successor's re-derived
	// partition: a cut that begins one of its shards replays vacuously
	// without exercising the split.)
	store1, err := sweep.OpenStore(filepath.Join(dir, "results.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store1.Close() })
	j1, err := OpenJournal(filepath.Join(dir, "sweep.journal"))
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	c1, err := NewCoordinator(jobs, Config{
		Name: "dist", Store: store1, Shards: 3, Journal: j1,
		LeaseTTL: time.Minute, StealAfter: 10 * time.Second,
		clock: clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}

	fastShards := []ClaimResponse{c1.claim("fast"), c1.claim("fast")}
	slow := c1.claim("slow")
	if slow.Shard == nil || len(slow.Shard.Jobs) != 6 {
		t.Fatalf("slow claim = %+v, want the 6-job shard", slow)
	}
	if _, err := c1.report(ReportRequest{
		Worker: "slow", Shard: slow.Shard.ID, Lease: slow.Shard.Lease,
		Records: []sweep.Record{recs[slow.Shard.Jobs[0].Key()]},
	}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(11 * time.Second)
	for i, fast := range fastShards {
		if fast.Shard == nil || len(fast.Shard.Jobs) != 5 {
			t.Fatalf("fast claim %d = %+v, want a 5-job shard", i, fast)
		}
		req := ReportRequest{Worker: "fast", Shard: fast.Shard.ID, Lease: fast.Shard.Lease}
		for _, j := range fast.Shard.Jobs {
			req.Records = append(req.Records, recs[j.Key()])
		}
		if _, err := c1.report(req); err != nil {
			t.Fatal(err)
		}
		if err := c1.completeShard("fast", fast.Shard.ID, fast.Shard.Lease); err != nil {
			t.Fatal(err)
		}
	}
	thief := c1.claim("fast")
	if thief.Shard == nil || thief.Shard.ID != 3 || len(thief.Shard.Jobs) != 2 {
		t.Fatalf("thief claim = %+v, want stolen shard 3 with 2 jobs", thief)
	}
	cutKey := slow.Shard.Jobs[4].Key()
	if len(j1.Cuts) != 1 || j1.Cuts[0] != cutKey {
		t.Fatalf("journal cuts = %v, want exactly [%s]", j1.Cuts, cutKey)
	}
	// Crash: no completes, no store close, both leases left dangling.

	// Successor: a default config asking for a different shard count.
	// The journal's recorded base geometry (3) overrides the changed
	// request, and the replayed cut makes it 4 shards over the 5
	// remaining jobs.
	store2, err := sweep.OpenStore(filepath.Join(dir, "results.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store2.Close() })
	j2, err := OpenJournal(filepath.Join(dir, "sweep.journal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(j2.Cuts) != 1 {
		t.Fatalf("reopened journal cuts = %v, want the recorded cut", j2.Cuts)
	}
	c2, err := NewCoordinator(jobs, Config{
		Name: "dist", Store: store2, Shards: 5, Journal: j2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if j2.Epoch != 2 {
		t.Fatalf("successor epoch = %d, want 2", j2.Epoch)
	}
	st := c2.Status()
	if st.Shards.Total != 4 {
		t.Fatalf("successor shard total = %d, want 4 (3 journaled base + 1 replayed split)", st.Shards.Total)
	}

	// Both pre-crash tokens are fenced by the successor's epoch.
	if _, err := c2.report(ReportRequest{
		Worker: "slow", Shard: slow.Shard.ID, Lease: slow.Shard.Lease,
		Records: []sweep.Record{recs[slow.Shard.Jobs[1].Key()]},
	}); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("victim's stale report = %v, want ErrLeaseLost", err)
	}
	if err := c2.completeShard("fast", thief.Shard.ID, thief.Shard.Lease); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("thief's stale complete = %v, want ErrLeaseLost", err)
	}

	// A fresh fleet drains the recovered geometry; dedup over the store
	// keeps the aggregates byte-identical to the single-process run.
	runFleet(t, c2, 2)
	if md := sweep.Markdown("Sweep dist", sweep.Aggregate(c2.Outcomes())); md != baseMD {
		t.Fatalf("aggregates diverged across crash + split recovery:\n%s\nvs\n%s", md, baseMD)
	}
	if n := store2.Len(); n != len(jobs) {
		t.Fatalf("store holds %d records, want %d", n, len(jobs))
	}
}
