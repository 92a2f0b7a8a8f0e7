package sweepd

// steal_test.go pins the work-stealing subsystem with a hand-driven
// coordinator and an injected clock — no sleeps, no real stragglers.
// The scenarios are the ugly ones: a steal racing the victim's
// in-flight report (retained records land, stolen records are refused
// per-job without touching the lease), the thief winning the race (the
// victim's late record dedups), and a remainder-1 shard that must never
// split. Byte-identity of the final aggregates against a single-process
// run is asserted at the end of every path, because dedup-by-key is the
// invariant that makes stealing safe at all.

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sweep"
)

// summariesByKey runs the grid single-process and indexes the results,
// so hand-driven workers can "compute" a job by lookup.
func summariesByKey(t *testing.T, outs []sweep.Outcome) map[string]sweep.Record {
	t.Helper()
	recs := make(map[string]sweep.Record, len(outs))
	for _, o := range outs {
		recs[o.Job.Key()] = sweep.Record{Key: o.Job.Key(), Job: o.Job, Summary: o.Summary}
	}
	return recs
}

func TestStealSplitsStragglerShard(t *testing.T) {
	jobs := testJobs(t)
	baseOuts, baseMD := baseline(t, jobs)
	recs := summariesByKey(t, baseOuts)

	clk := newFakeClock()
	reg := obs.NewRegistry()
	var logBuf bytes.Buffer
	store, err := sweep.OpenStore(t.TempDir() + "/results.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	coord, err := NewCoordinator(jobs, Config{
		Name: "dist", Store: store, Shards: 2, LeaseTTL: time.Minute,
		StealAfter: 10 * time.Second, Telemetry: reg,
		RunLog: obs.NewRunLog(&logBuf), clock: clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}

	slow := coord.claim("slow")
	fast := coord.claim("fast")
	if slow.Shard == nil || fast.Shard == nil {
		t.Fatalf("claims = %+v / %+v, want two shards", slow, fast)
	}
	slowJobs := slow.Shard.Jobs
	if len(slowJobs) != 8 || len(fast.Shard.Jobs) != 8 {
		t.Fatalf("shard sizes %d/%d, want 8/8", len(slowJobs), len(fast.Shard.Jobs))
	}

	report := func(worker string, shard *ShardClaim, js ...sweep.Job) ReportResponse {
		t.Helper()
		req := ReportRequest{Worker: worker, Shard: shard.ID, Lease: shard.Lease}
		for _, j := range js {
			req.Records = append(req.Records, recs[j.Key()])
		}
		resp, err := coord.report(req)
		if err != nil {
			t.Fatalf("%s report: %v", worker, err)
		}
		return resp
	}

	// The fast worker finishes its whole shard while the slow one sits
	// on everything; the fleet is now measurably ahead of the victim.
	clk.Advance(11 * time.Second)
	if r := report("fast", fast.Shard, fast.Shard.Jobs...); r.Accepted != 8 {
		t.Fatalf("fast report = %+v, want 8 accepted", r)
	}
	if err := coord.completeShard("fast", fast.Shard.ID, fast.Shard.Lease); err != nil {
		t.Fatal(err)
	}

	// Idle claim with nothing claimable: the steal policy must cut the
	// straggler's unreported suffix (half of 8) into a fresh shard.
	stolen := coord.claim("fast")
	if stolen.Shard == nil {
		t.Fatalf("thief claim = %+v, want a stolen shard", stolen)
	}
	if stolen.Shard.ID != 2 || len(stolen.Shard.Jobs) != 4 {
		t.Fatalf("stolen shard = id %d with %d jobs, want id 2 with 4", stolen.Shard.ID, len(stolen.Shard.Jobs))
	}
	for i, j := range stolen.Shard.Jobs {
		if want := slowJobs[4+i].Key(); j.Key() != want {
			t.Fatalf("stolen job %d = %s, want the victim's suffix job %s", i, j.Key(), want)
		}
	}
	snap := reg.Snapshot()
	if snap.Counters["sweepd.shards.split"] != 1 || snap.Counters["sweepd.jobs.stolen"] != 4 {
		t.Fatalf("steal counters = %+v, want 1 split / 4 stolen", snap.Counters)
	}

	// The victim's heartbeat now carries the stolen keys, so it can shed
	// them unrun.
	hbBody, _ := json.Marshal(HeartbeatRequest{
		Worker: "slow", Shard: slow.Shard.ID, Lease: slow.Shard.Lease, Done: 1, Total: 8,
	})
	hreq := httptest.NewRequest("POST", "/heartbeat", bytes.NewReader(hbBody))
	hrec := httptest.NewRecorder()
	coord.Handler().ServeHTTP(hrec, hreq)
	if hrec.Code != 200 {
		t.Fatalf("victim heartbeat after split = %d: %s", hrec.Code, hrec.Body.String())
	}
	var hb HeartbeatResponse
	if err := json.Unmarshal(hrec.Body.Bytes(), &hb); err != nil {
		t.Fatal(err)
	}
	if !hb.OK || len(hb.StolenKeys) != 4 {
		t.Fatalf("heartbeat response = %+v, want ok with 4 stolen keys", hb)
	}

	// The race: the victim's in-flight report carries one retained job
	// and one stolen job. The retained record must land; the stolen one
	// is refused per-job — the lease survives.
	r := report("slow", slow.Shard, slowJobs[0], slowJobs[7])
	if r.Accepted != 1 || r.Stolen != 1 || len(r.StolenKeys) != 4 {
		t.Fatalf("racing report = %+v, want 1 accepted / 1 stolen / 4 stolen keys", r)
	}

	// Thief lands the stolen suffix, including the job the victim just
	// tried to report.
	if r := report("fast", stolen.Shard, stolen.Shard.Jobs...); r.Accepted != 4 {
		t.Fatalf("thief report = %+v, want 4 accepted", r)
	}
	// Thief-won race: the victim re-sends a stolen job the thief already
	// landed — that is a plain duplicate now, not a stolen rejection.
	if r := report("slow", slow.Shard, slowJobs[7]); r.Duplicates != 1 || r.Stolen != 0 {
		t.Fatalf("late victim report = %+v, want 1 duplicate", r)
	}

	// Both sides retire their shards; the sweep completes.
	if r := report("slow", slow.Shard, slowJobs[1], slowJobs[2], slowJobs[3]); r.Accepted != 3 {
		t.Fatalf("victim retained report = %+v, want 3 accepted", r)
	}
	if err := coord.completeShard("slow", slow.Shard.ID, slow.Shard.Lease); err != nil {
		t.Fatalf("victim complete of retained prefix: %v", err)
	}
	if err := coord.completeShard("fast", stolen.Shard.ID, stolen.Shard.Lease); err != nil {
		t.Fatal(err)
	}
	if !coord.Finished() {
		t.Fatal("all shards complete but coordinator not finished")
	}

	if md := sweep.Markdown("Sweep dist", sweep.Aggregate(coord.Outcomes())); md != baseMD {
		t.Fatalf("aggregates diverged across a steal:\n%s\nvs\n%s", md, baseMD)
	}
	if n := store.Len(); n != len(jobs) {
		t.Fatalf("store holds %d records, want %d", n, len(jobs))
	}

	// The split is on the record: a shard_split event naming victim,
	// thief, cut key, and the new shard.
	events, err := obs.ReadRunLog(bytes.NewReader(logBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var split *obs.RunEvent
	for i := range events {
		if events[i].Event == "shard_split" {
			split = &events[i]
		}
	}
	if split == nil {
		t.Fatal("no shard_split event in run-log")
	}
	if split.Fields["thief"] != "fast" || split.Fields["cut"] != slowJobs[4].Key() {
		t.Fatalf("shard_split fields = %+v, want thief=fast cut=%s", split.Fields, slowJobs[4].Key())
	}
	if got := split.Fields["new_shard"].(float64); got != 2 {
		t.Fatalf("shard_split new_shard = %v, want 2", got)
	}

	// /status reflects the split in both tallies and per-shard detail.
	st := coord.Status()
	if st.Shards.Split != 1 || st.Shards.JobsStolen != 4 {
		t.Fatalf("status tally = %+v, want 1 split / 4 stolen", st.Shards)
	}
	if len(st.Shards.Detail) != 3 {
		t.Fatalf("status detail rows = %d, want 3", len(st.Shards.Detail))
	}
	if d := st.Shards.Detail[0]; d.Jobs != 4 || d.StolenJobs != 4 || d.State != "done" {
		t.Fatalf("victim detail row = %+v, want 4 jobs / 4 stolen / done", d)
	}
}

// TestStealRemainderOneRejected: a straggler holding a single
// unreported job is never split — there is no suffix that leaves it
// retained work — and the declined evaluation is counted.
func TestStealRemainderOneRejected(t *testing.T) {
	spec := sweep.Spec{
		Name: "tiny", Sizes: []int{64}, Deltas: []float64{0},
		Adversaries: []string{"none"}, Trials: 2, Seed: 7,
	}
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	outs, err := sweep.Run(jobs, sweep.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	recs := summariesByKey(t, outs)

	clk := newFakeClock()
	reg := obs.NewRegistry()
	store, err := sweep.OpenStore(t.TempDir() + "/results.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	coord, err := NewCoordinator(jobs, Config{
		Name: "tiny", Store: store, Shards: 2, LeaseTTL: time.Minute,
		StealAfter: 10 * time.Second, Telemetry: reg, clock: clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}

	slow := coord.claim("slow")
	fast := coord.claim("fast")
	if slow.Shard == nil || fast.Shard == nil || len(slow.Shard.Jobs) != 1 {
		t.Fatalf("claims = %+v / %+v, want two 1-job shards", slow, fast)
	}
	clk.Advance(11 * time.Second)
	if _, err := coord.report(ReportRequest{
		Worker: "fast", Shard: fast.Shard.ID, Lease: fast.Shard.Lease,
		Records: []sweep.Record{recs[fast.Shard.Jobs[0].Key()]},
	}); err != nil {
		t.Fatal(err)
	}
	if err := coord.completeShard("fast", fast.Shard.ID, fast.Shard.Lease); err != nil {
		t.Fatal(err)
	}

	// The victim is stale and the fleet is ahead, but its remainder is
	// one job: the claim must poll, not split.
	resp := coord.claim("fast")
	if resp.Shard != nil || resp.Done || resp.RetryMS <= 0 {
		t.Fatalf("claim = %+v, want a retry hint", resp)
	}
	snap := reg.Snapshot()
	if snap.Counters["sweepd.shards.split"] != 0 {
		t.Fatal("remainder-1 shard was split")
	}
	if snap.Counters["sweepd.steals.rejected"] < 1 {
		t.Fatalf("declined steal not counted: %+v", snap.Counters)
	}

	// The straggler eventually delivers; nothing was lost or doubled.
	if _, err := coord.report(ReportRequest{
		Worker: "slow", Shard: slow.Shard.ID, Lease: slow.Shard.Lease,
		Records: []sweep.Record{recs[slow.Shard.Jobs[0].Key()]},
	}); err != nil {
		t.Fatal(err)
	}
	if err := coord.completeShard("slow", slow.Shard.ID, slow.Shard.Lease); err != nil {
		t.Fatal(err)
	}
	if !coord.Finished() || store.Len() != len(jobs) {
		t.Fatalf("finished=%v store=%d, want finished with %d records", coord.Finished(), store.Len(), len(jobs))
	}
}
