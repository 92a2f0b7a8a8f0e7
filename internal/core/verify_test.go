package core

import (
	"testing"

	"repro/internal/hgraph"
)

// verifyFixture builds a world on a known network, manually populating
// held logs so attestation chains can be unit-tested without running the
// full protocol.
type verifyFixture struct {
	w   *World
	net *hgraph.Network
}

func newVerifyFixture(t *testing.T, byzIdx []int, adv Adversary) *verifyFixture {
	t.Helper()
	net, err := hgraph.New(hgraph.Params{N: 256, D: 8, Seed: 301})
	if err != nil {
		t.Fatal(err)
	}
	byz := make([]bool, 256)
	for _, b := range byzIdx {
		byz[b] = true
	}
	if adv == nil {
		adv = HonestAdversary{}
	}
	cfg := Config{Algorithm: AlgorithmByzantine, Seed: 303}.withDefaults(256)
	w := newWorld(net, byz, adv, cfg)
	t.Cleanup(w.Close)
	w.growHeldLog(cfg.MaxPhase) // every row a round can read
	adv.Init(w)
	return &verifyFixture{w: w, net: net}
}

// holdFrom marks that node x held color c from round r0 onward (monotone
// held logs, as the engine maintains them), with every log row readable.
// The engine writes the log only between rounds, so the edit opens a new
// round: attestation outcomes stored in the previous one no longer apply.
func (f *verifyFixture) holdFrom(x int, c int64, r0 int) {
	for r := r0; r < len(f.w.heldLog); r++ {
		f.w.heldLog[r][x] = max(f.w.heldLog[r][x], c)
	}
	f.w.logTop = len(f.w.heldLog) - 1
	f.w.globalRound++
}

// pathFrom returns some H-path v -> x1 -> x2 starting at a neighbor of v.
func pathFrom(net *hgraph.Network, v int, length int) []int32 {
	path := []int32{int32(v)}
	seen := map[int32]bool{int32(v): true}
	cur := int32(v)
	for len(path) <= length {
		advanced := false
		for _, nb := range net.H.UniqueNeighbors(int(cur)) {
			if !seen[nb] {
				path = append(path, nb)
				seen[nb] = true
				cur = nb
				advanced = true
				break
			}
		}
		if !advanced {
			break
		}
	}
	return path
}

// A color relayed along a genuine chain must verify: generator at x2 held
// from round 0, relay x1 from round 1, sender w from round 2; v receives
// at round 3 (k = 3, so the chain is x0=w, x1, x2 with budget 2).
func TestVerifyAcceptsGenuineChain(t *testing.T) {
	f := newVerifyFixture(t, nil, nil)
	path := pathFrom(f.net, 0, 3) // v=0, w=path[1], x1=path[2], x2=path[3]
	if len(path) < 4 {
		t.Skip("could not build a 3-hop path")
	}
	const c = int64(40)
	f.holdFrom(int(path[3]), c, 0) // generator
	f.holdFrom(int(path[2]), c, 1)
	f.holdFrom(int(path[1]), c, 2)
	if !f.w.verifyColor(0, path[1], c, 3, &msgTally{}) {
		t.Fatal("genuine chain rejected")
	}
}

// Without any holder, the same color must be rejected.
func TestVerifyRejectsUnsupportedColor(t *testing.T) {
	f := newVerifyFixture(t, nil, nil)
	path := pathFrom(f.net, 0, 1)
	if f.w.verifyColor(0, path[1], 40, 3, &msgTally{}) {
		t.Fatal("unsupported color accepted")
	}
}

// A chain that grounds out too late (generator claims round 1, but the
// timing requires holding at round 0) must be rejected: this is the
// "withheld color" case.
func TestVerifyRejectsLateChain(t *testing.T) {
	f := newVerifyFixture(t, nil, nil)
	path := pathFrom(f.net, 0, 3)
	if len(path) < 4 {
		t.Skip("could not build a 3-hop path")
	}
	const c = int64(40)
	// Everyone held from round 1 — nobody attests generation at round 0.
	f.holdFrom(int(path[3]), c, 1)
	f.holdFrom(int(path[2]), c, 1)
	f.holdFrom(int(path[1]), c, 2)
	if f.w.verifyColor(0, path[1], c, 3, &msgTally{}) {
		t.Fatal("late chain accepted: a color nobody generated at round 0 passed")
	}
}

// At round 1 only the sender's generation attestation matters.
func TestVerifyRoundOneGeneration(t *testing.T) {
	f := newVerifyFixture(t, nil, nil)
	path := pathFrom(f.net, 0, 1)
	w := path[1]
	const c = int64(17)
	if f.w.verifyColor(0, w, c, 1, &msgTally{}) {
		t.Fatal("round-1 color accepted without generation")
	}
	f.holdFrom(int(w), c, 0)
	if !f.w.verifyColor(0, w, c, 1, &msgTally{}) {
		t.Fatal("round-1 generated color rejected")
	}
}

// Attestation with held >= c (not equality) must pass: a bigger color
// upstream justifies the received one.
func TestVerifyAcceptsDominatingChain(t *testing.T) {
	f := newVerifyFixture(t, nil, nil)
	path := pathFrom(f.net, 0, 3)
	if len(path) < 4 {
		t.Skip("could not build a 3-hop path")
	}
	f.holdFrom(int(path[3]), 100, 0)
	f.holdFrom(int(path[2]), 100, 1)
	f.holdFrom(int(path[1]), 100, 2)
	if !f.w.verifyColor(0, path[1], 40, 3, &msgTally{}) {
		t.Fatal("dominated color rejected despite bigger legit color upstream")
	}
}

// attestYes is an adversary whose Byzantine nodes attest to anything.
type attestYes struct{ HonestAdversary }

func (attestYes) Attest(*World, int, int, int64, int) bool { return true }

// A single Byzantine node (no Byzantine chain) cannot make a round-k color
// pass: the DFS needs k-1 further attestors beyond the sender and honest
// ones refuse.
func TestVerifyRejectsIsolatedByzantineMidSubphase(t *testing.T) {
	net, err := hgraph.New(hgraph.Params{N: 256, D: 8, Seed: 301})
	if err != nil {
		t.Fatal(err)
	}
	// Pick a Byzantine node whose neighbors are all honest and find an
	// honest victim adjacent to it.
	b := 13
	byz := make([]bool, 256)
	byz[b] = true
	cfg := Config{Algorithm: AlgorithmByzantine, Seed: 303}.withDefaults(256)
	adv := attestYes{}
	w := newWorld(net, byz, adv, cfg)
	defer w.Close()
	w.growHeldLog(cfg.MaxPhase)
	victim := int(net.H.UniqueNeighbors(b)[0])
	// t = k = 3: needs a chain of 2 beyond b; all of b's neighbors are
	// honest with empty logs.
	if w.verifyColor(victim, int32(b), 1<<30, 3, &msgTally{}) {
		t.Fatal("isolated Byzantine injected at round k")
	}
	// But t = 1 must pass (generation claim, Lemma 16 allows it).
	if !w.verifyColor(victim, int32(b), 1<<30, 1, &msgTally{}) {
		t.Fatal("round-1 Byzantine generation claim rejected")
	}
}

// The simple-path rule: two adjacent Byzantine nodes must not be able to
// simulate a longer chain by bouncing the attestation between themselves
// (w -> b2 -> w -> b2 ...).
func TestVerifySimplePathPreventsBouncing(t *testing.T) {
	net, err := hgraph.New(hgraph.Params{N: 256, D: 8, Seed: 301})
	if err != nil {
		t.Fatal(err)
	}
	// Find an H-adjacent pair to make Byzantine.
	var b1, b2 int = -1, -1
	for v := 0; v < 256 && b1 < 0; v++ {
		nb := net.H.UniqueNeighbors(v)
		if len(nb) > 0 {
			b1, b2 = v, int(nb[0])
		}
	}
	byz := make([]bool, 256)
	byz[b1], byz[b2] = true, true
	cfg := Config{Algorithm: AlgorithmByzantine, Seed: 303}.withDefaults(256)
	w := newWorld(net, byz, attestYes{}, cfg)
	defer w.Close()
	w.growHeldLog(cfg.MaxPhase)

	// Victim adjacent to b1 but not Byzantine.
	victim := -1
	for _, nb := range net.H.UniqueNeighbors(b1) {
		if !byz[nb] {
			victim = int(nb)
			break
		}
	}
	if victim < 0 {
		t.Skip("no honest victim adjacent to the pair")
	}
	// t = k = 3 needs chain b1 -> x1 -> x2 with distinct x's; the pair can
	// only offer b1 -> b2 -> (honest, refuses) or b1 -> b2 -> b1 (revisit,
	// blocked). Unless b2 has another Byzantine neighbor, this must fail.
	thirdByz := false
	for _, nb := range net.H.UniqueNeighbors(b2) {
		if byz[nb] && int(nb) != b1 {
			thirdByz = true
		}
	}
	if thirdByz {
		t.Skip("accidental byzantine triangle")
	}
	if w.verifyColor(victim, int32(b1), 1<<30, 3, &msgTally{}) {
		t.Fatal("two Byzantine nodes simulated a 3-chain via path revisits")
	}
}

// Two receivers of one honest sender in one round get the same answer
// and the same charge, both matching a fresh search, for a chain that
// passes and for one that fails after several queries. The second is
// served from the sender's stored search: a log edit between them (which
// the engine never makes inside a round) flips what a fresh search would
// find, and does not reach it.
func TestVerifyReusesHonestSenderSearch(t *testing.T) {
	const c = int64(40)
	for _, tc := range []struct {
		name string
		gen  int // the round path[3] starts holding c: 0 passes, 1 fails
		want bool
	}{{"passing", 0, true}, {"failing", 1, false}} {
		t.Run(tc.name, func(t *testing.T) {
			f := newVerifyFixture(t, nil, nil)
			path := pathFrom(f.net, 0, 3)
			if len(path) < 4 {
				t.Skip("could not build a 3-hop path")
			}
			s := path[1]
			other := -1
			for _, nb := range f.net.H.UniqueNeighbors(int(s)) {
				if nb != 0 {
					other = int(nb)
					break
				}
			}
			f.holdFrom(int(path[3]), c, tc.gen)
			f.holdFrom(int(path[2]), c, 1)
			f.holdFrom(int(path[1]), c, 2)
			// A fresh search for round 3: chain budget min(3, k) - 1.
			wantOK, asked, _ := f.w.attestChain(0, s, c, 2, min(3, f.w.Net.K)-1, nil)
			if wantOK != tc.want || asked < 2 {
				t.Fatalf("fixture: fresh search = (%v, %d queries), want (%v, >= 2)", wantOK, asked, tc.want)
			}
			want := msgTally{msgs: int64(2 * asked), bits: int64(2*asked) * int64(messageBits(c)+64), maxBits: int64(messageBits(c) + 64)}
			for i, v := range []int{0, other} {
				if i == 1 {
					f.w.heldLog[0][path[3]] = c - f.w.heldLog[0][path[3]] // 0 <-> c
					if ok, _, _ := f.w.attestChain(v, s, c, 2, min(3, f.w.Net.K)-1, nil); ok == wantOK {
						t.Fatal("fixture: the log edit did not flip a fresh search")
					}
				}
				var acc msgTally
				if got := f.w.verifyColor(v, s, c, 3, &acc); got != wantOK || acc != want {
					t.Fatalf("receiver %d: (%v, %+v), fresh search (%v, %+v)", v, got, acc, wantOK, want)
				}
			}
		})
	}
}

// attestEven is an adversary whose Byzantine nodes vouch for anything to
// even verifiers and for nothing to odd ones.
type attestEven struct{ HonestAdversary }

func (attestEven) Attest(_ *World, _, v int, _ int64, _ int) bool { return v%2 == 0 }

// A search that reaches a Byzantine node depends on the verifier, so it
// is never reused: two receivers of one honest sender in one round, whose
// only chain runs through a Byzantine neighbor of the sender, get the
// answers that Byzantine node gives each of them, in either order.
func TestVerifyNeverReusesByzantineSearch(t *testing.T) {
	net := newVerifyFixture(t, nil, nil).net
	// An honest sender s with a Byzantine H-neighbor b and two more
	// H-neighbors of opposite parity, both receivers of s.
	s, b, even, odd := -1, -1, -1, -1
	for x := 0; x < net.H.N() && (even < 0 || odd < 0); x++ {
		nbs := net.H.UniqueNeighbors(x)
		if len(nbs) < 3 {
			continue
		}
		s, b, even, odd = x, int(nbs[0]), -1, -1
		for _, y := range nbs[1:] {
			if y%2 == 0 && even < 0 {
				even = int(y)
			} else if y%2 == 1 && odd < 0 {
				odd = int(y)
			}
		}
	}
	if odd < 0 || even < 0 {
		t.Skip("no sender with receivers of both parities")
	}
	f := newVerifyFixture(t, []int{b}, attestEven{})
	// t = 2: s must have held c at round 1 and some neighbor of s
	// generated it at round 0. No honest node did, so only b can vouch.
	const c = int64(40)
	f.holdFrom(s, c, 1)
	for _, order := range [][]int{{even, odd}, {odd, even}} {
		f.w.globalRound++ // a new round for each order
		for _, v := range order {
			if got, want := f.w.verifyColor(v, int32(s), c, 2, &msgTally{}), v%2 == 0; got != want {
				t.Fatalf("order %v: receiver %d accepted=%v, want %v (Byzantine answer reused across verifiers)", order, v, got, want)
			}
		}
	}
}
