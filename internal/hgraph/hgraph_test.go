package hgraph

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/rng"
)

func TestGenerateHRegular(t *testing.T) {
	for _, tc := range []struct{ n, d int }{{16, 4}, {100, 8}, {257, 6}, {512, 12}} {
		h := GenerateH(tc.n, tc.d, rng.New(uint64(tc.n)))
		if h.N() != tc.n {
			t.Fatalf("n=%d d=%d: N=%d", tc.n, tc.d, h.N())
		}
		for v := 0; v < tc.n; v++ {
			if h.Degree(v) != tc.d {
				t.Fatalf("n=%d d=%d: Degree(%d)=%d, want %d", tc.n, tc.d, v, h.Degree(v), tc.d)
			}
		}
		if !h.IsConnected() {
			t.Fatalf("n=%d d=%d: union of Hamiltonian cycles must be connected", tc.n, tc.d)
		}
	}
}

// Property: H(n,d) is d-regular and connected for random seeds.
func TestGenerateHProperty(t *testing.T) {
	f := func(seed uint64) bool {
		h := GenerateH(64, 8, rng.New(seed))
		for v := 0; v < 64; v++ {
			if h.Degree(v) != 8 {
				return false
			}
		}
		return h.IsConnected()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestDefaultK(t *testing.T) {
	for _, tc := range []struct{ d, k int }{{8, 3}, {10, 4}, {12, 4}, {6, 2}, {9, 3}} {
		if k := DefaultK(tc.d); k != tc.k {
			t.Errorf("DefaultK(%d) = %d, want %d", tc.d, k, tc.k)
		}
	}
}

func TestBuildGMatchesBalls(t *testing.T) {
	h := GenerateH(80, 8, rng.New(3))
	k := 2
	g := BuildG(h, k)
	// Ground truth: u~v in G iff 1 <= dist_H(u,v) <= k.
	for u := 0; u < 80; u += 7 {
		b := graph.NewBFS(h)
		d := b.Run(u)
		for v := 0; v < 80; v++ {
			want := v != u && d[v] <= int32(k)
			if got := g.HasEdge(u, v); got != want {
				t.Fatalf("G edge (%d,%d) = %v, want %v (dist_H=%d)", u, v, got, want, d[v])
			}
		}
	}
}

// countSBFS is the branching BFS countS replaced: it appends a
// neighbour only when its stamp is stale. It is the oracle for countS.
func countSBFS(h *graph.Graph, k int) int {
	n := h.N()
	off, adj := h.CSR()
	stamp := make([]int32, n)
	queue := make([]int32, 0, n)
	s := 0
	for v := 0; v < n; v++ {
		ep := int32(v + 1)
		stamp[v] = ep
		queue = append(queue[:0], int32(v))
		for depth, lo := 0, 0; depth < k && lo < len(queue); depth++ {
			hi := len(queue)
			for _, x := range queue[lo:hi] {
				for _, y := range adj[off[x]:off[x+1]] {
					if stamp[y] != ep {
						stamp[y] = ep
						queue = append(queue, y)
					}
				}
			}
			lo = hi
		}
		s += len(queue) - 1
	}
	return s
}

// TestCountSMatchesBFS checks the branchless S count against the
// branching BFS over multigraphs from 3 nodes (parallel edges, every
// ball the whole graph) to 1000, and radii from 0 to past the diameter,
// where the queue fills to n and the write past its end lands in the
// spare slot.
func TestCountSMatchesBFS(t *testing.T) {
	cases := 0
	for _, n := range []int{3, 5, 9, 64, 257, 1000} {
		for _, d := range []int{4, 6, 8, 16} {
			if n <= 3 && d > 4 {
				continue
			}
			seeds := uint64(3)
			if n >= 1000 {
				seeds = 1 // keeps the race build's run short
			}
			for seed := uint64(1); seed <= seeds; seed++ {
				h := GenerateH(n, d, rng.New(seed))
				for _, k := range []int{0, 1, 2, 3, 5, 40} {
					if got, want := countS(h, k), countSBFS(h, k); got != want {
						t.Fatalf("n=%d d=%d k=%d seed=%d: S = %d, BFS counts %d", n, d, k, seed, got, want)
					}
					cases++
				}
			}
		}
	}
	// Both Hamiltonian cycles on 3 nodes are the triangle.
	if s := countS(GenerateH(3, 4, rng.New(1)), 1); s != 3*2 {
		t.Fatalf("n=3: S = %d, want 6: every node sees the other two", s)
	}
	t.Logf("%d cases", cases)
}

func TestBuildGIsSimple(t *testing.T) {
	h := GenerateH(60, 8, rng.New(4))
	g := BuildG(h, 3)
	for v := 0; v < g.N(); v++ {
		if g.EdgeMultiplicity(v, v) != 0 {
			t.Fatalf("G has self-loop at %d", v)
		}
		nb := g.Neighbors(v)
		for i := 1; i < len(nb); i++ {
			if nb[i] == nb[i-1] {
				t.Fatalf("G has parallel edge %d-%d", v, nb[i])
			}
		}
	}
}

func TestGDegreeBounded(t *testing.T) {
	// Observation 2: |B_G(v, 1)| < (d-1)^{k+1}, so G-degree < (d-1)^{k+1}.
	p := Params{N: 500, D: 8, Seed: 5}
	net := MustNew(p)
	bound := int(math.Pow(float64(p.D-1), float64(net.K+1)))
	stats := net.G().Degrees()
	if stats.Max >= bound {
		t.Fatalf("max G-degree %d >= bound %d", stats.Max, bound)
	}
}

func TestAssignIDsDistinct(t *testing.T) {
	ids := AssignIDs(5000, rng.New(7))
	seen := make(map[uint64]bool, len(ids))
	for _, id := range ids {
		if id == 0 || id >= 1<<63 {
			t.Fatalf("ID %d out of 63-bit positive range", id)
		}
		if seen[id] {
			t.Fatalf("duplicate ID %d", id)
		}
		seen[id] = true
	}
}

func TestNewValidation(t *testing.T) {
	bad := []Params{
		{N: 2, D: 4},
		{N: 100, D: 7},
		{N: 100, D: 2},
		{N: 8, D: 8},
		{N: 100, D: 8, K: -1},
	}
	for _, p := range bad {
		if _, err := New(p); err == nil {
			t.Errorf("params %+v unexpectedly valid", p)
		}
	}
	if _, err := New(Params{N: 64, D: 8, Seed: 1}); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
}

func TestNewDeterministic(t *testing.T) {
	p := Params{N: 128, D: 8, Seed: 42}
	a := MustNew(p)
	b := MustNew(p)
	if a.H.NumEdges() != b.H.NumEdges() || a.G().NumEdges() != b.G().NumEdges() {
		t.Fatal("same seed produced different networks")
	}
	for v := 0; v < p.N; v++ {
		if a.IDs[v] != b.IDs[v] {
			t.Fatal("same seed produced different IDs")
		}
		na, nb := a.H.Neighbors(v), b.H.Neighbors(v)
		if len(na) != len(nb) {
			t.Fatal("same seed produced different adjacency")
		}
		for i := range na {
			if na[i] != nb[i] {
				t.Fatal("same seed produced different adjacency")
			}
		}
	}
}

func TestIsLocallyTreeLikeOnKnownGraphs(t *testing.T) {
	// An 8-regular "tree-like" certificate is hard to build by hand; use a
	// cycle where structure is known. In a big cycle every node's 1-ball is
	// a path = a 1-ary tree with d=2: root has 2 distinct neighbors.
	c := cycleGraph(50)
	scratch := graph.NewBFS(c)
	for v := 0; v < 50; v += 11 {
		if !IsLocallyTreeLike(c, scratch, v, 1) {
			t.Fatalf("cycle node %d should be LTL at r=1", v)
		}
		// r=12: ball of radius 12 in C50 is a path, still a tree.
		if !IsLocallyTreeLike(c, scratch, v, 12) {
			t.Fatalf("cycle node %d should be LTL at r=12", v)
		}
		// r=25: the ball wraps around and closes the cycle: not a tree.
		if IsLocallyTreeLike(c, scratch, v, 25) {
			t.Fatalf("cycle node %d should not be LTL at r=25", v)
		}
	}
	// Triangle: neighbors of the root are adjacent: never tree-like.
	tri := triangle()
	scratch = graph.NewBFS(tri)
	if IsLocallyTreeLike(tri, scratch, 0, 1) {
		t.Fatal("triangle node should not be LTL")
	}
}

func TestIsLocallyTreeLikeMultiEdge(t *testing.T) {
	// Parallel edge at the root: root has d adjacency entries but only
	// d-1 distinct children: not tree-like.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(0, 3)
	g := b.Build()
	scratch := graph.NewBFS(g)
	if IsLocallyTreeLike(g, scratch, 0, 1) {
		t.Fatal("root with parallel edge should not be LTL")
	}
}

func TestLocallyTreeLikeFraction(t *testing.T) {
	// Lemma 1 shape: the non-LTL fraction is O(d^2/n) at r=1 (a ball is
	// non-tree-like iff it contains a parallel edge or an in-ball cross
	// edge, each with probability ~ d/n per pair). At n=2000, d=8 the
	// expectation is ~ 28·8/2000 ≈ 11%, and it must shrink as n grows.
	frac := func(n int) float64 {
		h := GenerateH(n, 8, rng.New(uint64(n)))
		_, count := LocallyTreeLike(h, LTLRadius(n, 8))
		return float64(count) / float64(n)
	}
	f2000 := frac(2000)
	if f2000 < 0.85 {
		t.Fatalf("LTL fraction %v < 0.85 at n=2000", f2000)
	}
	f8000 := frac(8000)
	if f8000 <= f2000 {
		t.Fatalf("LTL fraction did not improve with n: %v (n=2000) vs %v (n=8000)", f2000, f8000)
	}
}

func TestLTLRadiusClamps(t *testing.T) {
	if r := LTLRadius(1024, 8); r < 1 {
		t.Fatalf("LTLRadius clamped wrong: %d", r)
	}
	// Asymptotically the formula takes over: log2(n)/(10 log2 d) > 2
	// needs n > 2^60 for d=8; just check monotonicity in n.
	if LTLRadius(1<<40, 8) < LTLRadius(1024, 8) {
		t.Fatal("LTLRadius not monotone")
	}
}

func TestPlaceByzantine(t *testing.T) {
	byz := PlaceByzantine(100, 17, rng.New(13))
	count := 0
	for _, b := range byz {
		if b {
			count++
		}
	}
	if count != 17 {
		t.Fatalf("placed %d byzantine nodes, want 17", count)
	}
}

func TestByzantineBudget(t *testing.T) {
	if b := ByzantineBudget(1024, 0.5); b != 32 {
		t.Fatalf("budget(1024, 0.5) = %d, want 32", b)
	}
	if b := ByzantineBudget(1000, 1.0); b != 1 {
		t.Fatalf("budget(1000, 1.0) = %d, want 1", b)
	}
}

func TestLongestByzantineChain(t *testing.T) {
	// Path graph with byzantine nodes 2,3,4 → chain of 3 nodes.
	b := graph.NewBuilder(8)
	for i := 0; i < 7; i++ {
		b.AddEdge(i, i+1)
	}
	g := b.Build()
	byz := make([]bool, 8)
	byz[2], byz[3], byz[4] = true, true, true
	if c := LongestByzantineChain(g, byz, 10); c != 3 {
		t.Fatalf("chain = %d, want 3", c)
	}
	// Limit caps the search.
	if c := LongestByzantineChain(g, byz, 2); c != 2 {
		t.Fatalf("capped chain = %d, want 2", c)
	}
	// No byzantine nodes.
	if c := LongestByzantineChain(g, make([]bool, 8), 10); c != 0 {
		t.Fatalf("empty chain = %d, want 0", c)
	}
	// Disconnected byzantine singletons.
	byz2 := make([]bool, 8)
	byz2[0], byz2[5] = true, true
	if c := LongestByzantineChain(g, byz2, 10); c != 1 {
		t.Fatalf("singleton chain = %d, want 1", c)
	}
}

func TestObservation6Shape(t *testing.T) {
	// With B = n^{1-δ}, δ=0.5 at n=1024 (B=32) and k=3, an all-Byzantine
	// 3-chain is unlikely (union bound: n·d^2/n^{1.5} ≈ 2). Run several
	// seeds and require the chain bound to hold in the majority.
	n, d, k := 1024, 8, 3
	bcount := ByzantineBudget(n, 0.5)
	violations := 0
	const trials = 10
	for s := uint64(0); s < trials; s++ {
		h := GenerateH(n, d, rng.New(s))
		byz := PlaceByzantine(n, bcount, rng.New(s+1000))
		if LongestByzantineChain(h, byz, k) >= k {
			violations++
		}
	}
	if violations > trials/2 {
		t.Fatalf("all-Byzantine k-chains in %d/%d trials; Observation 6 shape violated", violations, trials)
	}
}

func TestClassifyTaxonomy(t *testing.T) {
	net := MustNew(Params{N: 512, D: 8, Seed: 21})
	byz := PlaceByzantine(512, 8, rng.New(22))
	tax := Classify(net, byz, 0.5)
	if tax.NByz != 8 {
		t.Fatalf("NByz = %d, want 8", tax.NByz)
	}
	// At n=512, d=8 the expected non-LTL fraction is ~ 28·8/512 ≈ 35%.
	if tax.NLTL < 512/2 {
		t.Fatalf("NLTL = %d, too few", tax.NLTL)
	}
	// BUS ⊇ Unsafe is not generally true (BUS uses Bad = Byz ∪ NLT ⊇ NLT),
	// so BUS count >= Unsafe count.
	if tax.NBUS < tax.NUnsafe {
		t.Fatalf("NBUS=%d < NUnsafe=%d", tax.NBUS, tax.NUnsafe)
	}
	// Byzantine nodes are Bad, hence BUS at radius >= 1 marks them.
	for v := 0; v < 512; v++ {
		if byz[v] && !tax.BUS[v] {
			t.Fatalf("byzantine node %d not in BUS", v)
		}
	}
}

func TestWattsStrogatz(t *testing.T) {
	n, k := 200, 4
	// beta = 0: pure ring lattice, high clustering, everyone degree 2k.
	g0 := WattsStrogatz(n, k, 0, rng.New(31))
	for v := 0; v < n; v++ {
		if g0.Degree(v) != 2*k {
			t.Fatalf("beta=0 degree(%d) = %d, want %d", v, g0.Degree(v), 2*k)
		}
	}
	c0 := g0.AvgClustering()
	if c0 < 0.5 {
		t.Fatalf("ring lattice clustering %v too low", c0)
	}
	// beta = 0.2: still high-ish clustering, much shorter paths.
	g2 := WattsStrogatz(n, k, 0.2, rng.New(32))
	if !g2.IsConnected() {
		t.Fatal("WS(0.2) disconnected")
	}
	d0 := g0.DiameterLowerBound(4)
	d2 := g2.DiameterLowerBound(4)
	if d2 >= d0 {
		t.Fatalf("rewiring did not shrink diameter: %d -> %d", d0, d2)
	}
	// Edge count preserved by rewiring.
	if g2.NumEdges() != n*k {
		t.Fatalf("WS edges = %d, want %d", g2.NumEdges(), n*k)
	}
}

func TestUnsafeRadiusClamped(t *testing.T) {
	if r := UnsafeRadius(1024, 8, 3, 0.4); r < 1 {
		t.Fatalf("UnsafeRadius = %d, want >= 1", r)
	}
}

func cycleGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(i, (i+1)%n)
	}
	return b.Build()
}

func triangle() *graph.Graph {
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	return b.Build()
}

func BenchmarkGenerateH4096(b *testing.B) {
	for i := 0; i < b.N; i++ {
		GenerateH(4096, 8, rng.New(uint64(i)))
	}
}
