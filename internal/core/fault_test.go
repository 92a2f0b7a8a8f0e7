package core

import (
	"testing"

	"repro/internal/hgraph"
	"repro/internal/rng"
)

// legacyScheduleChurn is the seed engine's map-based churn scheduler,
// kept as the reference the allocation-free FaultPlan path must
// reproduce draw-for-draw.
func legacyScheduleChurn(m CrashChurn, byz []bool) map[int][]int {
	if m.Crashes <= 0 {
		return nil
	}
	last := m.LastPhase
	if last == 0 {
		last = 6
	}
	if last < 2 {
		last = 2
	}
	src := rng.New(m.Seed + 0xC4A5)
	var honest []int
	for v, b := range byz {
		if !b {
			honest = append(honest, v)
		}
	}
	count := m.Crashes
	if count > len(honest) {
		count = len(honest)
	}
	schedule := make(map[int][]int, last)
	for _, idx := range src.Sample(len(honest), count) {
		phase := 2 + src.Intn(last-1)
		schedule[phase] = append(schedule[phase], honest[idx])
	}
	return schedule
}

// TestCrashChurnMatchesLegacySchedule pins the refactor: for both Sample
// branches (sparse and dense draws), the plan's crash events must be the
// legacy map's per-phase victim lists in identical replay order.
func TestCrashChurnMatchesLegacySchedule(t *testing.T) {
	net := hgraph.MustNew(hgraph.Params{N: 300, D: 8, Seed: 31})
	byz := hgraph.PlaceByzantine(300, 7, rng.New(32))
	for _, crashes := range []int{1, 5, 30, 120, 299} { // 120+ hits the dense Perm branch
		m := CrashChurn{Crashes: crashes, Seed: 34, LastPhase: 9}
		cfg := Config{Algorithm: AlgorithmBasic, Seed: 33, Workers: 1, Faults: []FaultModel{m}}
		w := NewWorld()
		if err := w.Reset(net, byz, nil, cfg); err != nil {
			t.Fatal(err)
		}
		w.scheduleFaults()
		want := legacyScheduleChurn(m, byz)
		idx := 0
		for phase := 0; phase <= 9; phase++ {
			for _, victim := range want[phase] {
				if idx >= len(w.plan.events) {
					t.Fatalf("crashes=%d: plan has %d events, legacy has more", crashes, len(w.plan.events))
				}
				ev := w.plan.events[idx]
				idx++
				if ev.kind != faultCrash || int(ev.phase) != phase || int(ev.node) != victim {
					t.Fatalf("crashes=%d event %d: got (phase=%d node=%d kind=%d), want (phase=%d node=%d crash)",
						crashes, idx-1, ev.phase, ev.node, ev.kind, phase, victim)
				}
			}
		}
		if idx != len(w.plan.events) {
			t.Fatalf("crashes=%d: plan has %d extra events", crashes, len(w.plan.events)-idx)
		}
		w.Close()
	}
}

// TestFaultScheduleZeroAllocOnReuse is the regression for the legacy
// scheduler's per-run map[int][]int: on a warm arena, building and
// replaying a churn schedule (crash and join models together) must not
// allocate.
func TestFaultScheduleZeroAllocOnReuse(t *testing.T) {
	net := hgraph.MustNew(hgraph.Params{N: 512, D: 8, Seed: 41})
	cfg := Config{Algorithm: AlgorithmBasic, Seed: 42, Workers: 1,
		Faults: []FaultModel{CrashChurn{Crashes: 40, Seed: 43},
			JoinChurn{Count: 30, Seed: 44}, MessageLoss{Prob: 0.05}},
	}
	w := NewWorld()
	defer w.Close()
	if err := w.Reset(net, nil, nil, cfg); err != nil {
		t.Fatal(err)
	}
	w.scheduleFaults() // warm the slabs to steady state
	allocs := testing.AllocsPerRun(50, func() {
		w.plan.reset(w.N())
		w.scheduleFaults()
		for i := 1; i <= 10; i++ {
			w.applyFaults(i)
		}
	})
	if allocs != 0 {
		t.Errorf("fault scheduling allocates %.1f objects per run, want 0", allocs)
	}
}

func TestJoinChurnRejoinsAndStaysAccurate(t *testing.T) {
	net := hgraph.MustNew(hgraph.Params{N: 1024, D: 8, Seed: 51})
	res, err := Run(net, nil, nil, Config{
		Algorithm: AlgorithmByzantine,
		Seed:      52,
		Faults:    []FaultModel{JoinChurn{Count: 100, Seed: 53}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ChurnCrashes != 100 {
		t.Fatalf("join churn scheduled %d leaves, want 100", res.ChurnCrashes)
	}
	if res.Rejoins == 0 {
		t.Fatal("no node ever rejoined")
	}
	if res.Rejoins+res.CrashedCount != res.ChurnCrashes {
		t.Fatalf("rejoins %d + still-down %d != leaves %d", res.Rejoins, res.CrashedCount, res.ChurnCrashes)
	}
	// Rejoined nodes must re-converge: every honest uncrashed node decides,
	// and the aggregate accuracy holds.
	if res.UndecidedCount != 0 {
		t.Fatalf("%d rejoined/surviving nodes undecided", res.UndecidedCount)
	}
	good, survivors := 0, 0
	for v := 0; v < res.N; v++ {
		if res.Crashed[v] {
			continue
		}
		survivors++
		if ratio, ok := res.Ratio(v); ok && ratio >= 0.15 && ratio <= 3.0 {
			good++
		}
	}
	if f := float64(good) / float64(survivors); f < 0.95 {
		t.Fatalf("survivor accuracy %v under join churn", f)
	}
}

// TestJoinChurnNeverRevivesExchangeCrashes: a node that crashed itself in
// the topology exchange must stay down even if the oblivious schedule
// had a leave/rejoin cycle for it.
func TestJoinChurnNeverRevivesExchangeCrashes(t *testing.T) {
	net := hgraph.MustNew(hgraph.Params{N: 256, D: 8, Seed: 55})
	byz := hgraph.PlaceByzantine(256, 6, rng.New(56))
	adv := &liarAdversary{}
	w := NewWorld()
	defer w.Close()
	res, err := w.Run(net, byz, adv, Config{
		Algorithm: AlgorithmByzantine,
		Seed:      57,
		Faults:    []FaultModel{JoinChurn{Count: 200, Seed: 58}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Re-run without churn to identify the exchange crashes.
	ref, err := Run(net, byz, &liarAdversary{}, Config{Algorithm: AlgorithmByzantine, Seed: 57})
	if err != nil {
		t.Fatal(err)
	}
	if ref.CrashedCount == 0 {
		t.Skip("liar produced no exchange crashes at this seed")
	}
	for v := 0; v < res.N; v++ {
		if ref.Crashed[v] && !res.Crashed[v] {
			t.Fatalf("exchange-crashed node %d was revived by join churn", v)
		}
	}
}

// liarAdversary crashes its audience with a degree-violating claim: the
// simplest way to manufacture exchange crashes for the revival test.
type liarAdversary struct{ HonestAdversary }

func (a *liarAdversary) ClaimHNeighbors(w *World, b, v int) []int32 {
	return []int32{int32(v)} // wrong degree: v crashes on receipt
}

// TestPermanentCrashBeatsRejoin pins the composition semantics of
// permanent crashes (CrashChurn, exchange) against leave/rejoin cycles:
// whatever order the phases land in, a permanently crashed node never
// comes back.
func TestPermanentCrashBeatsRejoin(t *testing.T) {
	net := hgraph.MustNew(hgraph.Params{N: 64, D: 8, Seed: 45})
	run := func(build func(p *FaultPlan)) *World {
		w := NewWorld()
		t.Cleanup(w.Close)
		if err := w.Reset(net, nil, nil, Config{Algorithm: AlgorithmBasic, Seed: 46, Workers: 1}); err != nil {
			t.Fatal(err)
		}
		build(&w.plan)
		w.plan.seal()
		for i := 1; i <= 6; i++ {
			w.applyFaults(i)
		}
		return w
	}
	// Sanity: a lone leave/rejoin cycle revives the node.
	w := run(func(p *FaultPlan) { p.LeaveAt(2, 5); p.RejoinAt(4, 5) })
	if w.crashed[5] || w.rejoins != 1 {
		t.Fatalf("lone cycle: crashed=%v rejoins=%d, want revived", w.crashed[5], w.rejoins)
	}
	// Permanent crash lands while the node is temporarily down: the
	// pending rejoin must die with it.
	w = run(func(p *FaultPlan) { p.LeaveAt(2, 5); p.RejoinAt(4, 5); p.CrashAt(3, 5) })
	if !w.crashed[5] || w.rejoins != 0 {
		t.Fatalf("crash during absence: crashed=%v rejoins=%d, want permanently down", w.crashed[5], w.rejoins)
	}
	// Permanent crash first, leave/rejoin scheduled after: no-op leave,
	// no revival.
	w = run(func(p *FaultPlan) { p.CrashAt(2, 5); p.LeaveAt(3, 5); p.RejoinAt(4, 5) })
	if !w.crashed[5] || w.rejoins != 0 {
		t.Fatalf("crash before leave: crashed=%v rejoins=%d, want permanently down", w.crashed[5], w.rejoins)
	}
}

// TestCrashChurnVictimsStayDownUnderJoinChurn drives the same guarantee
// end-to-end through the composed models at a density where victim
// collisions are certain.
func TestCrashChurnVictimsStayDownUnderJoinChurn(t *testing.T) {
	net := hgraph.MustNew(hgraph.Params{N: 64, D: 8, Seed: 47})
	// First run crash churn alone to learn its victims.
	ref, err := Run(net, nil, nil, Config{Algorithm: AlgorithmBasic, Seed: 48, MaxPhase: 12,
		Faults: []FaultModel{CrashChurn{Crashes: 40, Seed: 49}}})
	if err != nil {
		t.Fatal(err)
	}
	// Then compose with join churn over the same node population: 40+40
	// draws from 64 nodes must collide.
	res, err := Run(net, nil, nil, Config{Algorithm: AlgorithmBasic, Seed: 48, MaxPhase: 12,
		Faults: []FaultModel{CrashChurn{Crashes: 40, Seed: 49}, JoinChurn{Count: 40, Seed: 50}}})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < res.N; v++ {
		if ref.Crashed[v] && !res.Crashed[v] {
			t.Fatalf("crash-churn victim %d resurrected by composed join churn", v)
		}
	}
}

func TestMessageLossZeroIsNoop(t *testing.T) {
	net := hgraph.MustNew(hgraph.Params{N: 256, D: 8, Seed: 61})
	a, err := Run(net, nil, nil, Config{Algorithm: AlgorithmByzantine, Seed: 62})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(net, nil, nil, Config{Algorithm: AlgorithmByzantine, Seed: 62,
		Faults: []FaultModel{MessageLoss{Prob: 0}}})
	if err != nil {
		t.Fatal(err)
	}
	assertResultsEqual(t, a, b)
	if b.DroppedMessages != 0 {
		t.Fatalf("zero-probability loss dropped %d messages", b.DroppedMessages)
	}
}

func TestMessageLossDeterministicAcrossWorkers(t *testing.T) {
	net := hgraph.MustNew(hgraph.Params{N: 512, D: 8, Seed: 63})
	byz := hgraph.PlaceByzantine(512, 4, rng.New(64))
	cfg := Config{Algorithm: AlgorithmByzantine, Seed: 65,
		Faults: []FaultModel{MessageLoss{Prob: 0.1}}}
	cfg.Workers = 1
	a, err := Run(net, byz, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	b, err := Run(net, byz, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsEqual(t, a, b)
	if a.DroppedMessages == 0 {
		t.Fatal("loss at p=0.1 dropped nothing: the test exercises nothing")
	}
}

func TestMessageLossDegradesGracefully(t *testing.T) {
	net := hgraph.MustNew(hgraph.Params{N: 1024, D: 8, Seed: 67})
	moderate, err := Run(net, nil, nil, Config{Algorithm: AlgorithmByzantine, Seed: 68,
		Faults: []FaultModel{MessageLoss{Prob: 0.1}}})
	if err != nil {
		t.Fatal(err)
	}
	if moderate.UndecidedCount != 0 {
		t.Fatalf("%d nodes undecided at 10%% loss", moderate.UndecidedCount)
	}
	good := 0
	for v := 0; v < moderate.N; v++ {
		if ratio, ok := moderate.Ratio(v); ok && ratio >= 0.15 && ratio <= 3.0 {
			good++
		}
	}
	if f := float64(good) / float64(moderate.N); f < 0.95 {
		t.Fatalf("correct fraction %v at 10%% loss", f)
	}
	// Near-total loss must visibly break estimation — the model is not a
	// no-op. With p=0.95 a node hears almost nothing, its k_i stays 0, the
	// continue criterion never fires, and it decides in the earliest
	// phases with a far-too-small estimate.
	broken, err := Run(net, nil, nil, Config{Algorithm: AlgorithmByzantine, Seed: 68,
		Faults: []FaultModel{MessageLoss{Prob: 0.95}}})
	if err != nil {
		t.Fatal(err)
	}
	if broken.DroppedMessages <= moderate.DroppedMessages {
		t.Fatal("p=0.95 dropped fewer messages than p=0.1")
	}
	mean := func(r *Result) float64 {
		sum, cnt := 0.0, 0
		for v := 0; v < r.N; v++ {
			if e := r.Estimates[v]; e > 0 {
				sum += float64(e)
				cnt++
			}
		}
		return sum / float64(cnt)
	}
	if mb, mm := mean(broken), mean(moderate); mb >= mm-1 {
		t.Fatalf("near-total loss left estimates intact (%.2f vs %.2f): loss path suspect", mb, mm)
	}
}

func TestConfigValidatesFaultModels(t *testing.T) {
	net := hgraph.MustNew(hgraph.Params{N: 64, D: 8, Seed: 71})
	for _, cfg := range []Config{
		{Algorithm: AlgorithmBasic, Faults: []FaultModel{MessageLoss{Prob: 1.5}}},
		{Algorithm: AlgorithmBasic, Faults: []FaultModel{MessageLoss{Prob: -0.1}}},
		{Algorithm: AlgorithmBasic, Faults: []FaultModel{JoinChurn{Count: -1}}},
		{Algorithm: AlgorithmBasic, Faults: []FaultModel{CrashChurn{Crashes: -2}}},
	} {
		if _, err := Run(net, nil, nil, cfg); err == nil {
			t.Fatalf("config %+v validated", cfg)
		}
	}
	// Nil fault entries are ignored, not dereferenced.
	if _, err := Run(net, nil, nil, Config{Algorithm: AlgorithmBasic, Seed: 72,
		Faults: []FaultModel{nil, MessageLoss{Prob: 0.01}}}); err != nil {
		t.Fatalf("nil fault entry rejected: %v", err)
	}
}
