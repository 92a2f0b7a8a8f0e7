// Package graph provides the static graph substrate used by the network
// generators and the protocol simulator: compact CSR adjacency, BFS,
// distance balls, connected components, diameter, and clustering
// coefficients.
//
// Graphs are undirected and may be multigraphs (the H(n,d) model is a union
// of Hamiltonian cycles and can contain parallel edges and, at tiny n,
// self-loops; the paper keeps them, and so do we).
package graph

import (
	"fmt"
	"slices"
	"sort"
)

// Graph is an immutable undirected (multi)graph in compressed sparse row
// form. Node IDs are dense integers [0, N).
type Graph struct {
	n       int
	offsets []int32 // len n+1
	adj     []int32 // concatenated sorted neighbor lists
}

// Builder accumulates edges and produces a Graph.
type Builder struct {
	n     int
	edges [][2]int32
}

// NewBuilder returns a Builder for a graph on n nodes.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Builder{n: n}
}

// Grow pre-sizes the edge accumulator for at least extra additional edges,
// so callers that know the edge count up front (generators, format
// readers) avoid the append-doubling copies of a growing edge list.
func (b *Builder) Grow(extra int) {
	if extra <= 0 {
		return
	}
	if free := cap(b.edges) - len(b.edges); free < extra {
		grown := make([][2]int32, len(b.edges), len(b.edges)+extra)
		copy(grown, b.edges)
		b.edges = grown
	}
}

// AddEdge records an undirected edge {u, v}. Parallel edges are kept;
// self-loops are permitted and contribute a single adjacency entry.
func (b *Builder) AddEdge(u, v int) {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n))
	}
	b.edges = append(b.edges, [2]int32{int32(u), int32(v)})
}

// NumEdges reports the number of edges recorded so far.
func (b *Builder) NumEdges() int { return len(b.edges) }

// Build finalizes the Builder into an immutable Graph.
func (b *Builder) Build() *Graph {
	deg := make([]int32, b.n)
	for _, e := range b.edges {
		deg[e[0]]++
		if e[0] != e[1] {
			deg[e[1]]++
		}
	}
	offsets := make([]int32, b.n+1)
	for v := 0; v < b.n; v++ {
		offsets[v+1] = offsets[v] + deg[v]
	}
	adj := make([]int32, offsets[b.n])
	cursor := make([]int32, b.n)
	copy(cursor, offsets[:b.n])
	for _, e := range b.edges {
		u, v := e[0], e[1]
		adj[cursor[u]] = v
		cursor[u]++
		if u != v {
			adj[cursor[v]] = u
			cursor[v]++
		}
	}
	g := &Graph{n: b.n, offsets: offsets, adj: adj}
	for v := 0; v < b.n; v++ {
		slices.Sort(g.adjSlice(int32(v)))
	}
	return g
}

// FromCSR adopts prebuilt CSR arrays as a Graph after validating every
// structural invariant Build guarantees: offsets starts at 0, is
// monotone, and ends at len(adj); every adjacency entry is in range;
// each row is sorted ascending (multiplicities allowed); and the graph
// is undirected, each row listing every neighbour as often as that
// neighbour's row lists it (a self-loop once in its own row). It is the
// entry point for deserialized graphs — the binary network codec hands
// it untrusted arrays, so it must reject rather than panic. The slices
// are adopted, not copied; the caller must not modify them afterwards.
func FromCSR(offsets, adj []int32) (*Graph, error) {
	n := len(offsets) - 1
	if n < 0 {
		return nil, fmt.Errorf("graph: FromCSR needs len(offsets) >= 1")
	}
	if offsets[0] != 0 {
		return nil, fmt.Errorf("graph: FromCSR offsets[0] = %d, want 0", offsets[0])
	}
	if int(offsets[n]) != len(adj) {
		return nil, fmt.Errorf("graph: FromCSR offsets end at %d, adj has %d entries", offsets[n], len(adj))
	}
	for v := 0; v < n; v++ {
		if offsets[v+1] < offsets[v] {
			return nil, fmt.Errorf("graph: FromCSR offsets not monotone at node %d", v)
		}
		if int(offsets[v+1]) > len(adj) {
			// Monotonicity alone admits an intermediate overshoot that
			// dips back down to len(adj) at the end; slicing it would
			// panic on untrusted input.
			return nil, fmt.Errorf("graph: FromCSR offsets overshoot adj at node %d", v)
		}
		row := adj[offsets[v]:offsets[v+1]]
		var prev int32 = -1
		for _, w := range row {
			if w < prev {
				return nil, fmt.Errorf("graph: FromCSR row %d not sorted", v)
			}
			if w < 0 || int(w) >= n {
				return nil, fmt.Errorf("graph: FromCSR entry %d in row %d out of range [0,%d)", w, v, n)
			}
			prev = w
		}
	}
	if err := checkSymmetric(offsets, adj); err != nil {
		return nil, err
	}
	return &Graph{n: n, offsets: offsets, adj: adj}, nil
}

// checkSymmetric compares valid, sorted CSR arrays with their transpose
// in linear time. A counting-sort transpose built row by row in node
// order has sorted rows, so the graph is undirected exactly when the two
// are equal entry for entry.
func checkSymmetric(offsets, adj []int32) error {
	n := len(offsets) - 1
	cursor := make([]int32, n)
	for _, w := range adj {
		cursor[w]++
	}
	for v := 0; v < n; v++ {
		if cursor[v] != offsets[v+1]-offsets[v] {
			return fmt.Errorf("graph: FromCSR not symmetric: row %d has %d entries, %d rows list it", v, offsets[v+1]-offsets[v], cursor[v])
		}
		cursor[v] = offsets[v]
	}
	transpose := make([]int32, len(adj))
	for v := 0; v < n; v++ {
		for _, w := range adj[offsets[v]:offsets[v+1]] {
			transpose[cursor[w]] = int32(v)
			cursor[w]++
		}
	}
	for v := 0; v < n; v++ {
		if !slices.Equal(adj[offsets[v]:offsets[v+1]], transpose[offsets[v]:offsets[v+1]]) {
			return fmt.Errorf("graph: FromCSR not symmetric at row %d", v)
		}
	}
	return nil
}

func (g *Graph) adjSlice(v int32) []int32 {
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// NumEdges returns the number of undirected edges (self-loops count once,
// parallel edges count separately).
func (g *Graph) NumEdges() int {
	loops := 0
	for v := int32(0); v < int32(g.n); v++ {
		for _, w := range g.adjSlice(v) {
			if w == v {
				loops++
			}
		}
	}
	return (len(g.adj)-loops)/2 + loops
}

// Degree returns the degree of v (self-loops count once, parallel edges
// count with multiplicity).
func (g *Graph) Degree(v int) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the sorted neighbor multiset of v. The returned slice
// aliases internal storage and must not be modified.
func (g *Graph) Neighbors(v int) []int32 {
	return g.adjSlice(int32(v))
}

// CSR exposes the graph's compressed-sparse-row arrays: offsets has length
// N()+1 and adj holds the concatenated sorted neighbor lists, so node v's
// neighbors are adj[offsets[v]:offsets[v+1]]. Both slices alias internal
// storage and must be treated as read-only. The protocol engine's inner
// loop indexes these directly (and aligns its Byzantine send-slot tables
// to adj positions) instead of calling Neighbors per node per round.
func (g *Graph) CSR() (offsets, adj []int32) {
	return g.offsets, g.adj
}

// HasEdge reports whether at least one edge {u, v} exists.
func (g *Graph) HasEdge(u, v int) bool {
	nb := g.adjSlice(int32(u))
	t := int32(v)
	i := sort.Search(len(nb), func(i int) bool { return nb[i] >= t })
	return i < len(nb) && nb[i] == t
}

// UniqueNeighbors returns the de-duplicated neighbor set of v, excluding v
// itself. A fresh slice is returned.
func (g *Graph) UniqueNeighbors(v int) []int32 {
	nb := g.adjSlice(int32(v))
	out := make([]int32, 0, len(nb))
	var prev int32 = -1
	for _, w := range nb {
		if w != prev && w != int32(v) {
			out = append(out, w)
		}
		prev = w
	}
	return out
}

// BFS holds reusable scratch space for breadth-first searches on a fixed
// graph. It is not safe for concurrent use; allocate one per goroutine.
type BFS struct {
	g    *Graph
	dist []int32
	// queue holds every node the last search reached, in BFS order;
	// reset clears exactly those, so it is O(visited).
	queue []int32
}

// Unreached is the distance value for nodes not reached by the last search.
const Unreached = int32(-1)

// NewBFS returns BFS scratch space for g.
func NewBFS(g *Graph) *BFS {
	d := make([]int32, g.n)
	for i := range d {
		d[i] = Unreached
	}
	return &BFS{g: g, dist: d, queue: make([]int32, 0, 64)}
}

func (b *BFS) reset() {
	for _, v := range b.queue {
		b.dist[v] = Unreached
	}
	b.queue = b.queue[:0]
}

// Run performs a full BFS from src and returns the distance slice, which is
// valid until the next Run/RunWithin call. Unreached nodes have distance
// Unreached.
func (b *BFS) Run(src int) []int32 {
	return b.RunWithin(src, int32(b.g.n))
}

// RunWithin performs a BFS from src truncated at distance maxDist
// (inclusive) and returns the distance slice, valid until the next call.
func (b *BFS) RunWithin(src int, maxDist int32) []int32 {
	b.reset()
	s := int32(src)
	b.dist[s] = 0
	b.queue = append(b.queue, s)
	for head := 0; head < len(b.queue); head++ {
		v := b.queue[head]
		dv := b.dist[v]
		if dv >= maxDist {
			continue
		}
		for _, w := range b.g.adjSlice(v) {
			if b.dist[w] == Unreached {
				b.dist[w] = dv + 1
				b.queue = append(b.queue, w)
			}
		}
	}
	return b.dist
}

// Visited returns the nodes reached by the last search, in BFS order
// (starting with the source). The slice is valid until the next call.
func (b *BFS) Visited() []int32 { return b.queue }

// Eccentricity returns the maximum distance from src to any reachable node.
func (b *BFS) Eccentricity(src int) int32 {
	b.Run(src)
	var ecc int32
	for _, v := range b.queue {
		if b.dist[v] > ecc {
			ecc = b.dist[v]
		}
	}
	return ecc
}

// Ball returns the nodes within distance r of v (including v), in BFS
// order. A fresh slice is returned.
func (g *Graph) Ball(v int, r int) []int32 {
	b := NewBFS(g)
	b.RunWithin(v, int32(r))
	out := make([]int32, len(b.queue))
	copy(out, b.queue)
	return out
}

// BallWith returns, using caller-provided scratch, the nodes within
// distance r of v and their distances. The returned slices are valid until
// the next use of scratch.
func BallWith(scratch *BFS, v, r int) (nodes []int32, dist []int32) {
	scratch.RunWithin(v, int32(r))
	return scratch.queue, scratch.dist
}

// Boundary returns the nodes at distance exactly r from v (the paper's
// Bd(v, r)). A fresh slice is returned.
func (g *Graph) Boundary(v int, r int) []int32 {
	b := NewBFS(g)
	d := b.RunWithin(v, int32(r))
	var out []int32
	for _, w := range b.queue {
		if d[w] == int32(r) {
			out = append(out, w)
		}
	}
	return out
}

// Dist returns the length of a shortest path between u and v, or -1 if
// disconnected.
func (g *Graph) Dist(u, v int) int {
	b := NewBFS(g)
	d := b.Run(u)
	return int(d[v])
}

// Components returns the connected components as a slice of node slices,
// largest first.
func (g *Graph) Components() [][]int32 {
	seen := make([]bool, g.n)
	b := NewBFS(g)
	var comps [][]int32
	for v := 0; v < g.n; v++ {
		if seen[v] {
			continue
		}
		b.Run(v)
		comp := make([]int32, len(b.queue))
		copy(comp, b.queue)
		for _, w := range comp {
			seen[w] = true
		}
		comps = append(comps, comp)
	}
	sort.Slice(comps, func(i, j int) bool { return len(comps[i]) > len(comps[j]) })
	return comps
}

// IsConnected reports whether the graph has a single connected component
// (true for the empty graph).
func (g *Graph) IsConnected() bool {
	if g.n == 0 {
		return true
	}
	b := NewBFS(g)
	b.Run(0)
	return len(b.queue) == g.n
}

// Diameter computes the exact diameter by all-pairs BFS: O(n·m). Suitable
// for the experiment scales used here (n up to a few tens of thousands).
// Returns -1 for disconnected graphs.
func (g *Graph) Diameter() int {
	if g.n == 0 {
		return 0
	}
	b := NewBFS(g)
	var diam int32
	for v := 0; v < g.n; v++ {
		b.Run(v)
		if len(b.queue) != g.n {
			return -1
		}
		for _, w := range b.queue {
			if b.dist[w] > diam {
				diam = b.dist[w]
			}
		}
	}
	return int(diam)
}

// DiameterLowerBound estimates the diameter with the classic iterated
// two-sweep heuristic: repeatedly BFS to the farthest node found. The
// result is an exact eccentricity, hence a lower bound on the diameter,
// and in practice tight on expanders. rounds controls the number of
// sweeps (>= 1).
func (g *Graph) DiameterLowerBound(rounds int) int {
	if g.n == 0 {
		return 0
	}
	b := NewBFS(g)
	src := 0
	var best int32
	for it := 0; it < rounds; it++ {
		d := b.Run(src)
		far, fd := src, int32(0)
		for _, w := range b.queue {
			if d[w] > fd {
				fd = d[w]
				far = int(w)
			}
		}
		if fd > best {
			best = fd
		}
		src = far
	}
	return int(best)
}

// LocalClustering returns the local clustering coefficient of v in the
// simple graph underlying g (parallel edges de-duplicated, self-loops
// ignored): the fraction of pairs of distinct neighbors that are adjacent.
// Nodes with fewer than two distinct neighbors have coefficient 0.
func (g *Graph) LocalClustering(v int) float64 {
	nb := g.UniqueNeighbors(v)
	k := len(nb)
	if k < 2 {
		return 0
	}
	links := 0
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			if g.HasEdge(int(nb[i]), int(nb[j])) {
				links++
			}
		}
	}
	return float64(links) / float64(k*(k-1)/2)
}

// AvgClustering returns the mean local clustering coefficient over all
// nodes (the Watts–Strogatz clustering coefficient).
func (g *Graph) AvgClustering() float64 {
	if g.n == 0 {
		return 0
	}
	sum := 0.0
	for v := 0; v < g.n; v++ {
		sum += g.LocalClustering(v)
	}
	return sum / float64(g.n)
}

// DegreeStats summarizes the degree sequence.
type DegreeStats struct {
	Min, Max int
	Mean     float64
}

// Degrees returns summary statistics of the degree sequence.
func (g *Graph) Degrees() DegreeStats {
	if g.n == 0 {
		return DegreeStats{}
	}
	st := DegreeStats{Min: g.Degree(0), Max: g.Degree(0)}
	total := 0
	for v := 0; v < g.n; v++ {
		d := g.Degree(v)
		total += d
		if d < st.Min {
			st.Min = d
		}
		if d > st.Max {
			st.Max = d
		}
	}
	st.Mean = float64(total) / float64(g.n)
	return st
}

// Induced returns the subgraph induced by the nodes with keep[v] == true,
// along with the mapping from new to original node IDs. Edges with either
// endpoint dropped are removed; multiplicities are preserved.
func (g *Graph) Induced(keep []bool) (*Graph, []int32) {
	if len(keep) != g.n {
		panic("graph: keep vector length mismatch")
	}
	toNew := make([]int32, g.n)
	var toOld []int32
	for v := 0; v < g.n; v++ {
		if keep[v] {
			toNew[v] = int32(len(toOld))
			toOld = append(toOld, int32(v))
		} else {
			toNew[v] = -1
		}
	}
	b := NewBuilder(len(toOld))
	for v := 0; v < g.n; v++ {
		if !keep[v] {
			continue
		}
		for _, w := range g.adjSlice(int32(v)) {
			if int32(v) <= w && keep[w] { // each undirected edge once
				b.AddEdge(int(toNew[v]), int(toNew[w]))
			}
		}
	}
	return b.Build(), toOld
}

// EdgeMultiplicity returns the number of parallel {u,v} edges.
func (g *Graph) EdgeMultiplicity(u, v int) int {
	nb := g.adjSlice(int32(u))
	t := int32(v)
	i := sort.Search(len(nb), func(i int) bool { return nb[i] >= t })
	count := 0
	for ; i < len(nb) && nb[i] == t; i++ {
		count++
	}
	return count
}
