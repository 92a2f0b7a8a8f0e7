// Package hgraph implements the paper's network model (§2.1 and Appendix A):
//
//   - H(n,d): a random d-regular multigraph built as the union of d/2
//     independent uniform Hamiltonian cycles (the Law–Siu P2P model), an
//     expander w.h.p. (Lemma 19).
//   - L: the "lattice" overlay connecting every pair of nodes within
//     H-distance k, k = ⌈d/3⌉.
//   - G = H ∪ L: the small-world network the protocol runs on, built by
//     growing every node's H-ball level by level in a row bitmap
//     (BuildGWith). The engine never holds G: Algorithm 1 floods over H,
//     and Algorithm 2's topology exchange needs only G's adjacency length
//     (Network.S) and H-balls, so G is built only by the analysis code
//     that reads it (Network.G).
//
// It also implements the structural machinery of the analysis: the
// locally-tree-like classification (Definitions 7–8), the node taxonomy of
// Definition 9 (Byzantine, locally-tree-like, safe, Byzantine-safe, ...),
// Byzantine placement, and the all-Byzantine-chain check of Observation 6.
package hgraph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Params configures a small-world network instance.
type Params struct {
	N    int    // number of nodes (>= 3)
	D    int    // H-degree; even, >= 4 (the paper assumes >= 8)
	K    int    // lattice radius; 0 means the paper's default ⌈d/3⌉
	Seed uint64 // generator seed
}

// DefaultK returns the paper's lattice radius k = ⌈d/3⌉.
func DefaultK(d int) int { return (d + 2) / 3 }

// GenVersion identifies the generator's output, not its implementation:
// two generators with the same GenVersion produce bit-identical networks
// for equal Params. Bump it in the same commit that regenerates the
// golden network digests (golden_test.go) after an INTENTIONAL output
// change — persistent topology stores key on it, so stale blobs from
// the previous generator are orphaned instead of served.
const GenVersion = 1

// Canonical returns p with defaults resolved (K = ⌈d/3⌉ when zero), so two
// Params that generate identical networks compare equal. The sweep
// subsystem's network cache and job content hashes key on the canonical
// form, letting K=0 and an explicit default K address the same instance.
func (p Params) Canonical() Params {
	if p.K == 0 {
		p.K = DefaultK(p.D)
	}
	return p
}

// Network is a generated instance of the paper's model: H, K and the
// IDs, plus S, which is derived from H and K and counted on first use. A
// Network is safe for concurrent use once built: the sweep cache shares
// one instance across jobs, and concurrent first callers of S share one
// count.
type Network struct {
	Params Params
	H      *graph.Graph // the d-regular expander (multigraph)
	K      int          // lattice radius actually used
	IDs    []uint64     // distinct node IDs from a large space

	sOnce sync.Once
	s     int
}

// S returns Σ_v deg_G(v), the length of G's adjacency, without building
// G: deg_G(v) is the size of v's radius-K ball in H less v, so the first
// call counts every node's ball by a depth-K BFS over H and later calls
// return the count. Algorithm 2's topology exchange charges its messages
// from S (Remark 3).
func (net *Network) S() int {
	net.sOnce.Do(func() { net.s = countS(net.H, net.K) })
	return net.s
}

// countS returns Σ_v (|ball_H(v, k)| − 1) by a serial BFS to depth k
// from every node. stamp[x] is the epoch (source + 1) of the last search
// that reached x, so no search clears what the previous one marked. A
// search stops once a level adds no node, which bounds any k by n − 1
// levels, as BuildGWith's cap does.
//
// The inner loop has no data-dependent branch: it writes every
// neighbour y into the queue slot past the end and stamps it, and the
// end advances by one only if y's stamp was stale, so a node already
// reached is overwritten by the next write. The flag compiles to a
// conditional set (SETNE on amd64), so whether a neighbour is fresh,
// which no predictor can guess, costs no branch miss. The slot past the
// end exists even when all n nodes are queued because the queue holds
// n + 1.
func countS(h *graph.Graph, k int) int {
	n := h.N()
	off, adj := h.CSR()
	stamp := make([]int32, n)
	queue := make([]int32, n+1)
	s := 0
	for v := 0; v < n; v++ {
		ep := int32(v + 1)
		stamp[v] = ep
		queue[0] = int32(v)
		end := 1
		for depth, lo := 0, 0; depth < k && lo < end; depth++ {
			hi := end
			for _, x := range queue[lo:hi] {
				for _, y := range adj[off[x]:off[x+1]] {
					fresh := 0
					if stamp[y] != ep {
						fresh = 1
					}
					queue[end] = y
					stamp[y] = ep
					end += fresh
				}
			}
			lo = hi
		}
		s += end - 1
	}
	return s
}

// G builds the lattice network G = H ∪ L as a simple graph, anew on
// every call: nothing keeps it. A network of parallelGenThreshold nodes
// or more builds on a transient worker pool. Only analysis code reads G
// (Digest, Classify, the structure experiments, netgen); the engine
// needs only S.
func (net *Network) G() *graph.Graph {
	var pool *sim.Pool
	if net.H.N() >= parallelGenThreshold && runtime.GOMAXPROCS(0) > 1 {
		pool = sim.NewPool(0)
		defer pool.Close()
	}
	return BuildGWith(net.H, net.K, pool)
}

// Validate checks parameter sanity.
func (p Params) Validate() error {
	if p.N < 3 {
		return fmt.Errorf("hgraph: need N >= 3, got %d", p.N)
	}
	if p.D < 4 || p.D%2 != 0 {
		return fmt.Errorf("hgraph: need even D >= 4, got %d", p.D)
	}
	if p.N <= p.D {
		return fmt.Errorf("hgraph: need N > D (got N=%d, D=%d)", p.N, p.D)
	}
	if p.K < 0 {
		return fmt.Errorf("hgraph: negative K %d", p.K)
	}
	return nil
}

// GenerateH builds an H(n,d) random regular multigraph: the union of d/2
// independent uniformly random Hamiltonian cycles on [0, n).
func GenerateH(n, d int, src *rng.Source) *graph.Graph {
	b := graph.NewBuilder(n)
	for c := 0; c < d/2; c++ {
		perm := src.Perm(n)
		for i := 0; i < n; i++ {
			b.AddEdge(perm[i], perm[(i+1)%n])
		}
	}
	return b.Build()
}

// BuildG materializes G = H ∪ L as a simple graph: u~v in G iff
// 1 <= dist_H(u,v) <= k. For constant d and k this is a constant-degree
// graph (bounded by (d-1)^{k+1}, Observation 2). Serial; see BuildGWith
// for the pooled variant.
func BuildG(h *graph.Graph, k int) *graph.Graph {
	return BuildGWith(h, k, nil)
}

// BuildGWith is BuildG parallelized over nodes via pool (nil runs
// serially). The row of v in G is exactly ball_H(v, k) \ {v}, grown
// level by level from ball_0(v) = {v}: ball_i(v) is {v} together with
// the level-(i-1) rows of v's H-neighbours. Each chunk of nodes ORs
// those rows into one n-bit bitmap (bitRow), and reading the set bits
// out in ascending order yields the sorted, deduplicated row directly,
// so nothing is ever sorted or merged. Parallel edges and self-loops
// only set bits already set. The final level drops the center to
// become G's adjacency.
//
// Each level is one chunked parallel pass reading only the previous
// level's arrays (rowPass): workers emit finished rows into per-chunk
// slabs, and since sim.Pool chunks are contiguous disjoint node ranges,
// a prefix sum over the degree vector lands each slab in the level's
// CSR with a single copy — no intermediate edge list and no counting
// sort.
//
// The output is byte-identical to the reference builder (same offsets,
// same sorted rows), pinned by the golden network digest tests.
func BuildGWith(h *graph.Graph, k int, pool *sim.Pool) *graph.Graph {
	n := h.N()
	// No H-distance exceeds n-1, so every ball is complete by level n-1:
	// the bound leaves G unchanged, and a huge K (which neither Validate
	// nor the codec rejects) costs at most n-1 levels.
	k = min(k, n-1)
	if k <= 0 {
		// A radius-0 ball is just {v}: G has no edges (matching the
		// reference builder; New never passes 0, which canonicalizes to
		// the paper's default radius).
		return graph.FromCSRUnchecked(make([]int32, n+1), nil)
	}
	hOff, hAdj := h.CSR()
	d := len(hAdj) / max(n, 1)
	off, adj := make([]int32, n+1), make([]int32, n) // level 0: ball_0(v) = {v}
	for v := range adj {
		adj[v], off[v+1] = int32(v), int32(v+1)
	}
	for i := 1; i <= k; i++ {
		prevOff, prevAdj, final := off, adj, i == k
		// d neighbours' mean rows plus the center: exact at level 1, an
		// overestimate once balls overlap.
		sizeHint := min(len(prevAdj)/max(n, 1)*d+1, n)
		off, adj = rowPass(n, pool, sizeHint, func(v int, row *bitRow, out []int32) []int32 {
			row.add(int32(v))
			for _, w := range hAdj[hOff[v]:hOff[v+1]] {
				for _, x := range prevAdj[prevOff[w]:prevOff[w+1]] {
					row.add(x)
				}
			}
			if final {
				row.remove(int32(v))
			}
			return row.drain(out)
		})
	}
	return graph.FromCSRUnchecked(off, adj)
}

// bitRow is a chunk's scratch row: an n-bit set with one summary bit per
// 64-bit word, so draining it costs in proportion to the words it
// touched rather than to n.
type bitRow struct {
	words   []uint64 // bit x%64 of words[x/64] is node x
	summary []uint64 // bit j%64 of summary[j/64] is set if words[j] may be non-zero
}

func newBitRow(n int) *bitRow {
	nw := (n + 63) / 64
	return &bitRow{words: make([]uint64, nw), summary: make([]uint64, (nw+63)/64)}
}

func (r *bitRow) add(x int32) {
	r.words[x>>6] |= 1 << (x & 63)
	r.summary[x>>12] |= 1 << ((x >> 6) & 63)
}

func (r *bitRow) remove(x int32) { r.words[x>>6] &^= 1 << (x & 63) }

// drain appends the row's members to out in ascending order and leaves
// the row empty.
func (r *bitRow) drain(out []int32) []int32 {
	for s, sw := range r.summary {
		if sw == 0 {
			continue
		}
		r.summary[s] = 0
		for ; sw != 0; sw &= sw - 1 {
			j := s<<6 | bits.TrailingZeros64(sw)
			base := int32(j << 6)
			w := r.words[j]
			r.words[j] = 0
			for ; w != 0; w &= w - 1 {
				out = append(out, base|int32(bits.TrailingZeros64(w)))
			}
		}
	}
	return out
}

// rowPass builds one CSR level in parallel: emit appends node v's
// finished sorted row to its slab and returns it, using row, the
// chunk's scratch bitmap, which it must leave empty. Chunk ranges from
// sim.Pool are contiguous and disjoint, so each chunk's slab is the
// exact concatenation of its rows in node order and stitching is one
// copy per shard after a prefix sum over the degree vector.
func rowPass(n int, pool *sim.Pool, sizeHint int, emit func(v int, row *bitRow, out []int32) []int32) (offsets, adj []int32) {
	deg := make([]int32, n)
	type shard struct {
		start int
		rows  []int32
	}
	var (
		mu     sync.Mutex
		shards []shard
	)
	build := func(start, end int) {
		if start >= end {
			// Pools larger than n/chunkSize emit trailing chunks whose
			// clamped range is empty; recording them would index
			// offsets[start] past the end during stitching.
			return
		}
		row := newBitRow(n)
		slab := make([]int32, 0, sizeHint*(end-start))
		for v := start; v < end; v++ {
			base := len(slab)
			slab = emit(v, row, slab)
			deg[v] = int32(len(slab) - base)
		}
		mu.Lock()
		shards = append(shards, shard{start: start, rows: slab})
		mu.Unlock()
	}
	if pool == nil {
		build(0, n)
	} else {
		pool.ForChunks(n, build)
	}

	offsets = make([]int32, n+1)
	total := int64(0)
	for v := 0; v < n; v++ {
		total += int64(deg[v])
		if total > math.MaxInt32 {
			panic(fmt.Sprintf("hgraph: level adjacency exceeds int32 entries at n=%d", n))
		}
		offsets[v+1] = offsets[v] + deg[v]
	}
	adj = make([]int32, offsets[n])
	slices.SortFunc(shards, func(a, b shard) int { return a.start - b.start })
	for _, s := range shards {
		copy(adj[offsets[s.start]:], s.rows)
	}
	return offsets, adj
}

// AssignIDs draws n distinct 63-bit IDs uniformly at random. The ID space
// is enormous relative to any n we simulate, matching the paper's
// assumption that ID length leaks no information about n.
//
// Duplicate detection runs on a preallocated open-addressing table (zero
// is free: IDs are never zero) instead of a growing map[uint64]bool — the
// same draws are accepted and rejected in the same order, without the
// map's incremental rehash copies.
func AssignIDs(n int, src *rng.Source) []uint64 {
	ids := make([]uint64, n)
	size := 16
	for size < 2*n { // load factor <= 0.5 keeps probe chains short
		size <<= 1
	}
	table := make([]uint64, size)
	mask := uint64(size - 1)
	for i := 0; i < n; i++ {
	draw:
		for {
			id := src.Uint64() >> 1 // 63-bit
			if id == 0 {
				continue
			}
			slot := id & mask // IDs are uniform bits: the low bits hash themselves
			for {
				switch table[slot] {
				case 0:
					table[slot] = id
					ids[i] = id
					break draw
				case id:
					continue draw // duplicate: redraw, as the map path did
				}
				slot = (slot + 1) & mask
			}
		}
	}
	return ids
}

// parallelGenThreshold is the node count below which Network.G builds G
// serially instead of on a transient worker pool. Below it the closure
// takes milliseconds on one core (BenchmarkBuildG: about 2 ms at n = 512
// and 9–13 ms at n = 2048).
const parallelGenThreshold = 4096

// New generates a network instance from params: H, K and the IDs.
func New(p Params) (*Network, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	k := p.K
	if k == 0 {
		k = DefaultK(p.D)
	}
	src := rng.Split(p.Seed, 0x48475248) // "HGRH"
	h := GenerateH(p.N, p.D, src)
	ids := AssignIDs(p.N, rng.Split(p.Seed, 0x49445350)) // "IDSP"
	return &Network{Params: p, H: h, K: k, IDs: ids}, nil
}

// NewWith is New, keeping the signature its callers use. pool goes
// unused: generation builds no G, and Network.G brings its own pool.
func NewWith(p Params, pool *sim.Pool) (*Network, error) {
	return New(p)
}

// NewReference generates a network with the pre-fast-path generator and
// returns it with its G: the Builder-based lattice closure, run eagerly,
// and the map-based ID set, exactly as the seed engine shipped them. It
// exists as the oracle the fast path is pinned against — the golden
// digest tests assert that NewReference with its G and New with G agree
// bit-for-bit across a parameter grid, and cmd/bench measures both so
// every trajectory entry records the generation speedup on the same
// machine.
func NewReference(p Params) (*Network, *graph.Graph, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	k := p.K
	if k == 0 {
		k = DefaultK(p.D)
	}
	src := rng.Split(p.Seed, 0x48475248) // "HGRH"
	h := GenerateH(p.N, p.D, src)
	g := buildGReference(h, k)
	ids := assignIDsReference(p.N, rng.Split(p.Seed, 0x49445350)) // "IDSP"
	return &Network{Params: p, H: h, K: k, IDs: ids}, g, nil
}

// buildGReference is the seed lattice closure: per-node balls appended to
// an edge Builder, finalized by Build's counting sort.
func buildGReference(h *graph.Graph, k int) *graph.Graph {
	n := h.N()
	b := graph.NewBuilder(n)
	scratch := graph.NewBFS(h)
	for v := 0; v < n; v++ {
		nodes, _ := graph.BallWith(scratch, v, k)
		for _, w := range nodes {
			if int(w) > v { // add each unordered pair once; skips loops
				b.AddEdge(v, int(w))
			}
		}
	}
	return b.Build()
}

// assignIDsReference is the seed ID assignment with its map-based
// duplicate set.
func assignIDsReference(n int, src *rng.Source) []uint64 {
	ids := make([]uint64, n)
	seen := make(map[uint64]bool, n)
	for i := 0; i < n; i++ {
		for {
			id := src.Uint64() >> 1 // 63-bit
			if id != 0 && !seen[id] {
				seen[id] = true
				ids[i] = id
				break
			}
		}
	}
	return ids
}

// Digest returns a content fingerprint of the generated instance: a
// SHA-256 over K, both graphs' CSR arrays, and the ID vector. Two
// networks with equal digests are structurally identical to the engine
// (same tables, same IDs), which is what the golden generator-identity
// tests and the topology store's round-trip tests pin. It builds G.
func (net *Network) Digest() string { return net.digest(net.G()) }

// digest is Digest over a G the caller built.
func (net *Network) digest(g *graph.Graph) string {
	h := sha256.New()
	var b [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	put(uint64(net.K))
	for _, x := range []*graph.Graph{net.H, g} {
		off, adj := x.CSR()
		put(uint64(len(off)))
		for _, v := range off {
			put(uint64(uint32(v)))
		}
		put(uint64(len(adj)))
		for _, v := range adj {
			put(uint64(uint32(v)))
		}
	}
	put(uint64(len(net.IDs)))
	for _, id := range net.IDs {
		put(id)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// MustNew is New for tests and examples; it panics on invalid params.
func MustNew(p Params) *Network {
	net, err := New(p)
	if err != nil {
		panic(err)
	}
	return net
}

// LTLRadius returns the paper's locally-tree-like radius
// r = log n / (10 log d) (Definition 7), clamped to at least 1 so that the
// classification is non-degenerate at laptop scales (the paper's constant
// 10 makes r = 0 below astronomically large n; with r >= 1 the
// classification still measures exactly the multi-edge/short-cycle events
// the analysis charges to NLT nodes).
func LTLRadius(n, d int) int {
	r := int(math.Log2(float64(n)) / (10 * math.Log2(float64(d))))
	if r < 1 {
		r = 1
	}
	return r
}

// IsLocallyTreeLike reports whether the radius-r ball around w in h induces
// a perfect (d-1)-ary tree (Definition 8): w has d distinct neighbors and
// every interior node u at distance 0 < j < r has exactly one neighbor at
// distance j-1 and d-1 at distance j+1, counting edge multiplicity.
func IsLocallyTreeLike(h *graph.Graph, scratch *graph.BFS, w, r int) bool {
	d := h.Degree(w)
	nodes, dist := graph.BallWith(scratch, w, r)
	for _, u := range nodes {
		du := dist[u]
		up, down, same := 0, 0, 0
		for _, x := range h.Neighbors(int(u)) {
			switch dist[x] {
			case du - 1:
				up++
			case du + 1:
				down++
			case du:
				same++ // self-loops, parallel siblings, cross edges
			default:
				// Unreached neighbors lie beyond the truncation radius;
				// possible only for boundary nodes.
				if int(du) < r {
					return false
				}
			}
		}
		switch {
		case u == int32(w):
			if up != 0 || same != 0 || down != d {
				return false
			}
		case int(du) < r:
			if up != 1 || same != 0 || down != d-1 {
				return false
			}
		default:
			// Boundary nodes must still have a unique parent and no edges
			// inside their own layer, or the induced ball is not a tree
			// (Definition 8).
			if up != 1 || same != 0 {
				return false
			}
		}
	}
	return true
}

// LocallyTreeLike classifies every node and returns the boolean vector and
// the number of LTL nodes. Lemma 1: w.h.p. at least n - O(n^0.8) nodes are
// locally tree-like.
func LocallyTreeLike(h *graph.Graph, r int) (ltl []bool, count int) {
	ltl = make([]bool, h.N())
	scratch := graph.NewBFS(h)
	for v := 0; v < h.N(); v++ {
		if IsLocallyTreeLike(h, scratch, v, r) {
			ltl[v] = true
			count++
		}
	}
	return ltl, count
}

// PlaceByzantine selects count distinct Byzantine nodes uniformly at random
// (the paper's random-placement assumption) and returns a membership vector.
func PlaceByzantine(n, count int, src *rng.Source) []bool {
	if count < 0 || count > n {
		panic(fmt.Sprintf("hgraph: byzantine count %d out of [0,%d]", count, n))
	}
	byz := make([]bool, n)
	for _, v := range src.Sample(n, count) {
		byz[v] = true
	}
	return byz
}

// ByzantineBudget returns ⌊n^(1-δ)⌋, the paper's fault budget. A small
// epsilon guards against Pow returning 7.999… for exact powers.
func ByzantineBudget(n int, delta float64) int {
	return int(math.Floor(math.Pow(float64(n), 1-delta) + 1e-9))
}

// LongestByzantineChain returns the maximum number of nodes on a simple
// path in h that consists entirely of Byzantine nodes, capped at limit
// (search stops early once limit is reached). Observation 6: w.h.p. there
// is no such chain with k nodes.
func LongestByzantineChain(h *graph.Graph, byz []bool, limit int) int {
	best := 0
	onPath := make([]bool, h.N())
	var dfs func(v, depth int)
	dfs = func(v, depth int) {
		if depth > best {
			best = depth
		}
		if best >= limit {
			return
		}
		onPath[v] = true
		for _, w := range h.Neighbors(v) {
			if byz[w] && !onPath[w] {
				dfs(int(w), depth+1)
			}
		}
		onPath[v] = false
	}
	for v := 0; v < h.N(); v++ {
		if byz[v] {
			dfs(v, 1)
			if best >= limit {
				return best
			}
		}
	}
	return best
}

// Taxonomy is the node partition of Definition 9, computed for a concrete
// instance. Distances for Unsafe/BUS are measured in G, as the definition
// requires.
type Taxonomy struct {
	Radius   int // the "a log n" radius used (in G-hops)
	LTLr     int // radius used for the locally-tree-like classification
	Byz      []bool
	LTL      []bool
	Unsafe   []bool // within Radius of a non-LTL node in G
	BUS      []bool // within Radius of a Bad (Byz ∪ NLT) node in G
	NByz     int
	NLTL     int
	NUnsafe  int
	NBUS     int
	NCrashed int // filled in by protocol runs; zero here
}

// UnsafeRadius returns the paper's a·log n with a = δ/(10 k log(d-1)),
// clamped to at least 1 hop (see LTLRadius for the rationale).
func UnsafeRadius(n, d, k int, delta float64) int {
	a := delta / (10 * float64(k) * math.Log2(float64(d-1)))
	r := int(a * math.Log2(float64(n)))
	if r < 1 {
		r = 1
	}
	return r
}

// Classify computes the Definition 9 taxonomy for a network instance.
func Classify(net *Network, byz []bool, delta float64) *Taxonomy {
	n := net.H.N()
	ltlR := LTLRadius(n, net.Params.D)
	ltl, nltl := LocallyTreeLike(net.H, ltlR)
	radius := UnsafeRadius(n, net.Params.D, net.K, delta)

	tax := &Taxonomy{
		Radius: radius,
		LTLr:   ltlR,
		Byz:    byz,
		LTL:    ltl,
		Unsafe: make([]bool, n),
		BUS:    make([]bool, n),
		NLTL:   nltl,
	}
	for v := 0; v < n; v++ {
		if byz[v] {
			tax.NByz++
		}
	}

	// Multi-source BFS in G from all NLT nodes marks Unsafe; from all Bad
	// nodes marks BUS. One distance vector serves both passes (re-zeroed
	// between them) — the second pass's sources are a superset, so the
	// marking order is unaffected.
	g := net.G()
	dist := make([]int32, n)
	markWithin := func(sources []int32, out []bool) int {
		for i := range dist {
			dist[i] = graph.Unreached
		}
		queue := make([]int32, 0, len(sources))
		for _, s := range sources {
			if dist[s] == graph.Unreached {
				dist[s] = 0
				queue = append(queue, s)
			}
		}
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			if int(dist[v]) >= radius {
				continue
			}
			for _, w := range g.Neighbors(int(v)) {
				if dist[w] == graph.Unreached {
					dist[w] = dist[v] + 1
					queue = append(queue, w)
				}
			}
		}
		count := 0
		for v := 0; v < n; v++ {
			if dist[v] != graph.Unreached {
				out[v] = true
				count++
			}
		}
		return count
	}

	var nlt, bad []int32
	for v := 0; v < n; v++ {
		if !ltl[v] {
			nlt = append(nlt, int32(v))
		}
		if !ltl[v] || byz[v] {
			bad = append(bad, int32(v))
		}
	}
	tax.NUnsafe = markWithin(nlt, tax.Unsafe)
	tax.NBUS = markWithin(bad, tax.BUS)
	return tax
}

// WattsStrogatz generates the classic Watts–Strogatz small-world graph:
// a ring lattice where each node connects to its k nearest neighbors on
// each side, with each edge rewired to a uniform endpoint with probability
// beta. Used as the comparison model in experiment E3 (the paper notes its
// degrees are unbounded, unlike H ∪ L).
func WattsStrogatz(n, k int, beta float64, src *rng.Source) *graph.Graph {
	if n < 2*k+1 {
		panic(fmt.Sprintf("hgraph: WattsStrogatz needs n >= 2k+1 (n=%d, k=%d)", n, k))
	}
	type edge struct{ u, v int }
	edges := make([]edge, 0, n*k)
	for v := 0; v < n; v++ {
		for j := 1; j <= k; j++ {
			edges = append(edges, edge{v, (v + j) % n})
		}
	}
	present := make(map[[2]int]bool, len(edges))
	key := func(u, v int) [2]int {
		if u > v {
			u, v = v, u
		}
		return [2]int{u, v}
	}
	for _, e := range edges {
		present[key(e.u, e.v)] = true
	}
	for i := range edges {
		if src.Float64() >= beta {
			continue
		}
		u := edges[i].u
		// Rewire the far endpoint to a uniform non-neighbor.
		for attempt := 0; attempt < 32; attempt++ {
			w := src.Intn(n)
			if w == u || present[key(u, w)] {
				continue
			}
			delete(present, key(edges[i].u, edges[i].v))
			edges[i].v = w
			present[key(u, w)] = true
			break
		}
	}
	b := graph.NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e.u, e.v)
	}
	return b.Build()
}
