package graph

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// path builds a path graph 0-1-2-...-(n-1).
func path(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1)
	}
	return b.Build()
}

// cycle builds a cycle on n nodes.
func cycle(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(i, (i+1)%n)
	}
	return b.Build()
}

// complete builds K_n.
func complete(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(i, j)
		}
	}
	return b.Build()
}

func TestBuilderBasics(t *testing.T) {
	g := path(5)
	if g.N() != 5 {
		t.Fatalf("N = %d, want 5", g.N())
	}
	if g.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d, want 4", g.NumEdges())
	}
	if g.Degree(0) != 1 || g.Degree(2) != 2 {
		t.Fatalf("degrees wrong: %d %d", g.Degree(0), g.Degree(2))
	}
	if !g.HasEdge(1, 2) || g.HasEdge(0, 2) {
		t.Fatal("HasEdge wrong")
	}
}

func TestMultiEdgesAndLoops(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(0, 1)
	b.AddEdge(2, 2)
	g := b.Build()
	if g.EdgeMultiplicity(0, 1) != 2 {
		t.Fatalf("multiplicity = %d, want 2", g.EdgeMultiplicity(0, 1))
	}
	if g.Degree(0) != 2 {
		t.Fatalf("Degree(0) = %d, want 2 (parallel edges count)", g.Degree(0))
	}
	if g.Degree(2) != 1 {
		t.Fatalf("Degree(2) = %d, want 1 (self-loop counts once)", g.Degree(2))
	}
	if g.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3", g.NumEdges())
	}
	un := g.UniqueNeighbors(0)
	if len(un) != 1 || un[0] != 1 {
		t.Fatalf("UniqueNeighbors(0) = %v, want [1]", un)
	}
	// Self-loop excluded from unique neighbors.
	if len(g.UniqueNeighbors(2)) != 0 {
		t.Fatalf("UniqueNeighbors(2) = %v, want empty", g.UniqueNeighbors(2))
	}
}

func TestBFSDistancesOnPath(t *testing.T) {
	g := path(6)
	b := NewBFS(g)
	d := b.Run(0)
	for v := 0; v < 6; v++ {
		if d[v] != int32(v) {
			t.Fatalf("dist[%d] = %d, want %d", v, d[v], v)
		}
	}
}

func TestBFSWithinTruncates(t *testing.T) {
	g := path(10)
	b := NewBFS(g)
	d := b.RunWithin(0, 3)
	if d[3] != 3 {
		t.Fatalf("dist[3] = %d, want 3", d[3])
	}
	if d[4] != Unreached {
		t.Fatalf("dist[4] = %d, want Unreached", d[4])
	}
	if len(b.Visited()) != 4 {
		t.Fatalf("visited %d nodes, want 4", len(b.Visited()))
	}
}

func TestBFSReuseIsClean(t *testing.T) {
	g := path(8)
	b := NewBFS(g)
	b.Run(7)
	d := b.RunWithin(0, 2)
	if d[7] != Unreached {
		t.Fatalf("stale distance survived reuse: d[7] = %d", d[7])
	}
	if d[2] != 2 {
		t.Fatalf("d[2] = %d, want 2", d[2])
	}
}

func TestBallAndBoundary(t *testing.T) {
	g := cycle(10)
	ball := g.Ball(0, 2)
	if len(ball) != 5 { // 0, 1, 9, 2, 8
		t.Fatalf("Ball size = %d, want 5", len(ball))
	}
	bd := g.Boundary(0, 2)
	if len(bd) != 2 {
		t.Fatalf("Boundary size = %d, want 2", len(bd))
	}
	for _, v := range bd {
		if v != 2 && v != 8 {
			t.Fatalf("unexpected boundary node %d", v)
		}
	}
}

func TestDist(t *testing.T) {
	g := cycle(12)
	if d := g.Dist(0, 6); d != 6 {
		t.Fatalf("Dist(0,6) = %d, want 6", d)
	}
	if d := g.Dist(0, 11); d != 1 {
		t.Fatalf("Dist(0,11) = %d, want 1", d)
	}
	// Disconnected.
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	g2 := b.Build()
	if d := g2.Dist(0, 3); d != -1 {
		t.Fatalf("Dist across components = %d, want -1", d)
	}
}

func TestComponents(t *testing.T) {
	b := NewBuilder(7)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(3, 4)
	// 5, 6 isolated
	g := b.Build()
	comps := g.Components()
	if len(comps) != 4 {
		t.Fatalf("got %d components, want 4", len(comps))
	}
	if len(comps[0]) != 3 || len(comps[1]) != 2 {
		t.Fatalf("component sizes wrong: %d %d", len(comps[0]), len(comps[1]))
	}
	if g.IsConnected() {
		t.Fatal("disconnected graph reported connected")
	}
	if !cycle(5).IsConnected() {
		t.Fatal("cycle reported disconnected")
	}
}

func TestDiameterExact(t *testing.T) {
	if d := path(10).Diameter(); d != 9 {
		t.Fatalf("path diameter = %d, want 9", d)
	}
	if d := cycle(10).Diameter(); d != 5 {
		t.Fatalf("cycle diameter = %d, want 5", d)
	}
	if d := complete(6).Diameter(); d != 1 {
		t.Fatalf("K6 diameter = %d, want 1", d)
	}
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	g := b.Build()
	if d := g.Diameter(); d != -1 {
		t.Fatalf("disconnected diameter = %d, want -1", d)
	}
}

func TestDiameterLowerBound(t *testing.T) {
	g := path(50)
	lb := g.DiameterLowerBound(3)
	if lb != 49 {
		t.Fatalf("two-sweep on a path should be exact: got %d, want 49", lb)
	}
	c := cycle(20)
	lb = c.DiameterLowerBound(4)
	if lb > 10 || lb < 9 {
		t.Fatalf("cycle(20) lower bound = %d, want 9..10", lb)
	}
}

func TestClustering(t *testing.T) {
	if c := complete(5).AvgClustering(); c != 1.0 {
		t.Fatalf("K5 clustering = %v, want 1", c)
	}
	if c := cycle(10).AvgClustering(); c != 0.0 {
		t.Fatalf("C10 clustering = %v, want 0", c)
	}
	// Triangle with a pendant: node 3 attached to node 0.
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	b.AddEdge(0, 3)
	g := b.Build()
	// Node 0 has neighbors {1,2,3}: pairs (1,2) linked, (1,3),(2,3) not: 1/3.
	if c := g.LocalClustering(0); c < 0.333 || c > 0.334 {
		t.Fatalf("LocalClustering(0) = %v, want 1/3", c)
	}
	if c := g.LocalClustering(3); c != 0 {
		t.Fatalf("LocalClustering(3) = %v, want 0 (degree 1)", c)
	}
}

func TestDegreeStats(t *testing.T) {
	st := path(5).Degrees()
	if st.Min != 1 || st.Max != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Mean != 8.0/5 {
		t.Fatalf("mean = %v, want 1.6", st.Mean)
	}
}

// randomGraph builds an Erdos-Renyi-ish multigraph for property tests.
func randomGraph(seed uint64, n, m int) *Graph {
	src := rng.New(seed)
	b := NewBuilder(n)
	for i := 0; i < m; i++ {
		b.AddEdge(src.Intn(n), src.Intn(n))
	}
	return b.Build()
}

// Property: adjacency is symmetric (u in N(v) iff v in N(u) with equal
// multiplicity).
func TestAdjacencySymmetryProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomGraph(seed, 30, 60)
		for u := 0; u < g.N(); u++ {
			for v := 0; v < g.N(); v++ {
				if u == v {
					continue
				}
				if g.EdgeMultiplicity(u, v) != g.EdgeMultiplicity(v, u) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: balls are monotone in radius and Ball(v,r) = union of
// boundaries 0..r.
func TestBallMonotoneProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomGraph(seed, 40, 80)
		v := int(seed % 40)
		prev := 0
		total := 0
		for r := 0; r <= 5; r++ {
			ball := len(g.Ball(v, r))
			if ball < prev {
				return false
			}
			total += len(g.Boundary(v, r))
			if total != ball {
				return false
			}
			prev = ball
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: BFS distances satisfy the triangle-ish property along edges:
// |d(u) - d(w)| <= 1 for every edge (u,w) in the same component.
func TestBFSLipschitzProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomGraph(seed, 35, 70)
		b := NewBFS(g)
		d := b.Run(0)
		for u := 0; u < g.N(); u++ {
			if d[u] == Unreached {
				continue
			}
			for _, w := range g.Neighbors(u) {
				if d[w] == Unreached {
					return false // neighbor of reached node must be reached
				}
				diff := d[u] - d[w]
				if diff < -1 || diff > 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: sum of degrees = 2*edges - loops (handshake lemma with loops
// counted once in our convention).
func TestHandshakeProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomGraph(seed, 25, 50)
		sum := 0
		loops := 0
		for v := 0; v < g.N(); v++ {
			sum += g.Degree(v)
			loops += g.EdgeMultiplicity(v, v)
		}
		return sum == 2*g.NumEdges()-loops
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestEccentricity(t *testing.T) {
	g := path(7)
	b := NewBFS(g)
	if e := b.Eccentricity(0); e != 6 {
		t.Fatalf("ecc(0) = %d, want 6", e)
	}
	if e := b.Eccentricity(3); e != 3 {
		t.Fatalf("ecc(3) = %d, want 3", e)
	}
}

func TestInduced(t *testing.T) {
	// Cycle 0-1-2-3-4-0; drop node 2: expect path 3-4-0-1.
	g := cycle(5)
	keep := []bool{true, true, false, true, true}
	sub, toOld := g.Induced(keep)
	if sub.N() != 4 {
		t.Fatalf("induced N = %d", sub.N())
	}
	if sub.NumEdges() != 3 {
		t.Fatalf("induced edges = %d, want 3", sub.NumEdges())
	}
	// Degree-1 endpoints are original nodes 1 and 3.
	var endpoints []int32
	for v := 0; v < sub.N(); v++ {
		if sub.Degree(v) == 1 {
			endpoints = append(endpoints, toOld[v])
		}
	}
	if len(endpoints) != 2 {
		t.Fatalf("endpoints = %v", endpoints)
	}
	for _, e := range endpoints {
		if e != 1 && e != 3 {
			t.Fatalf("unexpected endpoint %d", e)
		}
	}
}

func TestInducedPreservesMultiplicity(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.Build()
	sub, _ := g.Induced([]bool{true, true, false})
	if sub.EdgeMultiplicity(0, 1) != 2 {
		t.Fatalf("multiplicity = %d", sub.EdgeMultiplicity(0, 1))
	}
}

func TestInducedKeepAll(t *testing.T) {
	g := cycle(6)
	keep := []bool{true, true, true, true, true, true}
	sub, toOld := g.Induced(keep)
	if sub.N() != 6 || sub.NumEdges() != 6 {
		t.Fatalf("identity induced wrong: %d nodes %d edges", sub.N(), sub.NumEdges())
	}
	for i, o := range toOld {
		if int32(i) != o {
			t.Fatal("identity mapping broken")
		}
	}
}

func BenchmarkBFS4096(b *testing.B) {
	g := randomGraph(1, 4096, 16384)
	scratch := NewBFS(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scratch.Run(i % 4096)
	}
}

func TestFromCSRRoundTrip(t *testing.T) {
	for _, g := range []*Graph{path(7), cycle(9), complete(5), path(1)} {
		off, adj := g.CSR()
		got, err := FromCSR(off, adj)
		if err != nil {
			t.Fatalf("FromCSR on Build output: %v", err)
		}
		for v := 0; v < g.N(); v++ {
			nb, gb := g.Neighbors(v), got.Neighbors(v)
			if len(nb) != len(gb) {
				t.Fatalf("node %d: degree %d vs %d", v, len(nb), len(gb))
			}
			for i := range nb {
				if nb[i] != gb[i] {
					t.Fatalf("node %d: rows differ", v)
				}
			}
		}
	}
}

func TestFromCSRRejectsInvalid(t *testing.T) {
	cases := map[string]struct{ off, adj []int32 }{
		"empty offsets":      {[]int32{}, nil},
		"nonzero start":      {[]int32{1, 2}, []int32{0, 0}},
		"non-monotone":       {[]int32{0, 2, 1}, []int32{1, 2, 0}},
		"length mismatch":    {[]int32{0, 1}, []int32{0, 0}},
		"offset overshoot":   {[]int32{0, 5, 2}, []int32{0, 0}},
		"entry out of range": {[]int32{0, 1}, []int32{5}},
		"unsorted row":       {[]int32{0, 2}, []int32{1, 0}},
		"negative entry":     {[]int32{0, 1}, []int32{-1}},
	}
	// One entry of a 9-cycle rewritten in range, its row re-sorted: every
	// check but symmetry passes. Node 0's row {1, 8} becomes {4, 8}, so
	// node 4 is listed three times against its two entries; rewriting node
	// 5's 4 to 1 as well balances every count and leaves only the
	// transpose comparison to catch it.
	off, adj := cycle(9).CSR()
	asym := slices.Clone(adj)
	asym[off[0]] = 4
	slices.Sort(asym[off[0]:off[1]])
	balanced := slices.Clone(asym)
	balanced[off[5]] = 1
	slices.Sort(balanced[off[5]:off[6]])
	for name, a := range map[string][]int32{"asymmetric": asym, "asymmetric, counts balanced": balanced} {
		if _, err := FromCSR(off, a); err == nil || !strings.Contains(err.Error(), "not symmetric") {
			t.Errorf("%s: got %v, want a symmetry error", name, err)
		}
	}
	for name, c := range cases {
		if _, err := FromCSR(c.off, c.adj); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestFromCSRAcceptsMultiplicity(t *testing.T) {
	// Parallel edges and self-loops are legal: 0={1,1}, 1={0,0,1(self)}.
	off := []int32{0, 2, 5}
	adj := []int32{1, 1, 0, 0, 1}
	g, err := FromCSR(off, adj)
	if err != nil {
		t.Fatal(err)
	}
	if g.EdgeMultiplicity(0, 1) != 2 {
		t.Errorf("multiplicity(0,1) = %d, want 2", g.EdgeMultiplicity(0, 1))
	}
}

func TestBuilderGrow(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.Grow(100)
	b.AddEdge(1, 2)
	b.Grow(-5) // no-op
	g := b.Build()
	if g.NumEdges() != 2 {
		t.Fatalf("edges = %d, want 2", g.NumEdges())
	}
}
