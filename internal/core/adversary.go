package core

import "math/bits"

// Clock identifies a point in the protocol's global synchronous schedule.
// The network is synchronous, so i, j and t are common knowledge (§3.1).
type Clock struct {
	Phase    int // i >= 1
	Subphase int // j in 1..i·α_i
	Round    int // t in 1..i within the subphase; 0 between rounds
}

// Adversary drives the Byzantine nodes. It operates in the paper's
// full-information model: every method receives the *World, through which
// the complete state of all nodes — including their coin streams — is
// readable.
//
// Concurrency contract: Init, ClaimHNeighbors and SubphaseStart are called
// serially. Send is called serially at the start of each round (its results
// are latched for the round). Attest is called concurrently from the
// round's worker goroutines and must not mutate adversary or world state.
type Adversary interface {
	// Name identifies the strategy in reports.
	Name() string

	// Init is called once, after the world is constructed and before the
	// topology exchange.
	Init(w *World)

	// ClaimHNeighbors returns the H-adjacency list Byzantine node b reports
	// to honest node v during the topology exchange (Algorithm 2 line 1),
	// or nil to report truthfully. Claims of length != d, claims naming
	// nodes outside v's channel set, and claims contradicting an honest
	// endpoint all crash v (line 2) — which is usually the point.
	//
	// It is called once for every honest v and Byzantine b within
	// H-distance k of each other: victims in ascending order and, for each
	// victim, its Byzantine channels in the order a BFS from the victim
	// reaches them.
	ClaimHNeighbors(w *World, b, v int) []int32

	// SubphaseStart is called at the beginning of every subphase, after
	// honest colors are drawn (the adversary sees them, and can clone coin
	// streams for future ones).
	SubphaseStart(w *World)

	// Send returns the color Byzantine node b floods to its H-neighbor v
	// in round t of the current subphase. Return 0 for silence. A faithful
	// (protocol-following) value is w.Held(b).
	Send(w *World, b, v, t int) int64

	// Attest reports whether Byzantine node b, when queried by verifier v,
	// vouches for having held a color >= c at round r of the current
	// subphase (r == 0 means "generated such a color"). Must be pure.
	Attest(w *World, b, v int, c int64, r int) bool
}

// HonestAdversary makes every Byzantine node follow the protocol exactly.
// It is the null strategy used to validate that Algorithm 2 degenerates to
// Algorithm 1 when nobody misbehaves.
type HonestAdversary struct{}

// Name implements Adversary.
func (HonestAdversary) Name() string { return "honest" }

// Init implements Adversary.
func (HonestAdversary) Init(*World) {}

// ClaimHNeighbors implements Adversary: truthful reports.
func (HonestAdversary) ClaimHNeighbors(*World, int, int) []int32 { return nil }

// SubphaseStart implements Adversary.
func (HonestAdversary) SubphaseStart(*World) {}

// Send implements Adversary: flood the genuinely held maximum.
func (HonestAdversary) Send(w *World, b, v, t int) int64 { return w.Held(b) }

// Attest implements Adversary: truthful attestation from the held log.
func (HonestAdversary) Attest(w *World, b, v int, c int64, r int) bool {
	return w.HeldLogAt(b, r) >= c
}

var _ Adversary = HonestAdversary{}

// messageBits returns the size in bits we charge for flooding a color:
// the paper's "small message" is a constant number of IDs plus O(log n)
// payload bits; we charge the variable payload (the color's bit length)
// plus one 64-bit ID for the sender. Negative colors cannot occur (colors
// are geometric draws or adversary sends folded through max with 0).
func messageBits(c int64) int {
	return 64 + bits.Len64(uint64(c))
}
