// Package graph provides the in-memory graph representation and the
// synthetic input generators standing in for the paper's datasets
// (clueweb12, kron30, rmat28 — Table I) at laptop scale.
//
// Graphs are stored in compressed sparse row (CSR) form with optional edge
// weights, the layout both Gemini and Abelian use per host partition.
package graph

import (
	"fmt"
	"sort"
)

// Edge is one directed, optionally weighted edge.
type Edge struct {
	Src, Dst uint32
	W        uint32
}

// Graph is a directed graph in CSR form. Weights is either nil or parallel
// to Edges.
type Graph struct {
	N       int
	Offsets []int64
	Edges   []uint32
	Weights []uint32
}

// FromEdges builds a CSR graph with n vertices from an edge list. Edges are
// sorted per source by destination for deterministic traversal. Self-loops
// are dropped; parallel edges are kept (as in the paper's RMAT inputs).
func FromEdges(n int, edges []Edge) *Graph {
	deg := make([]int64, n+1)
	kept := 0
	for i := range edges {
		e := &edges[i]
		if e.Src == e.Dst {
			continue
		}
		deg[e.Src+1]++
		kept++
	}
	for i := 0; i < n; i++ {
		deg[i+1] += deg[i]
	}
	g := &Graph{N: n, Offsets: deg, Edges: make([]uint32, kept)}
	weighted := false
	for i := range edges {
		if edges[i].W != 0 {
			weighted = true
			break
		}
	}
	if weighted {
		g.Weights = make([]uint32, kept)
	}
	next := make([]int64, n)
	copy(next, deg[:n])
	for i := range edges {
		e := &edges[i]
		if e.Src == e.Dst {
			continue
		}
		p := next[e.Src]
		next[e.Src]++
		g.Edges[p] = e.Dst
		if weighted {
			g.Weights[p] = e.W
		}
	}
	// Scratch for the weighted permutation, reused across vertices.
	var idx []int
	var se, sw []uint32
	for v := 0; v < n; v++ {
		lo, hi := g.Offsets[v], g.Offsets[v+1]
		if hi-lo < 2 {
			continue
		}
		if g.Weights == nil {
			s := g.Edges[lo:hi]
			sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		} else {
			es, ws := g.Edges[lo:hi], g.Weights[lo:hi]
			idx = idx[:0]
			for i := range es {
				idx = append(idx, i)
			}
			sort.Slice(idx, func(i, j int) bool { return es[idx[i]] < es[idx[j]] })
			se, sw = se[:0], sw[:0]
			for _, k := range idx {
				se, sw = append(se, es[k]), append(sw, ws[k])
			}
			copy(es, se)
			copy(ws, sw)
		}
	}
	return g
}

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int64 { return int64(len(g.Edges)) }

// Degree returns v's out-degree.
func (g *Graph) Degree(v int) int { return int(g.Offsets[v+1] - g.Offsets[v]) }

// Neighbors returns v's out-neighbor slice (do not modify).
func (g *Graph) Neighbors(v int) []uint32 {
	return g.Edges[g.Offsets[v]:g.Offsets[v+1]]
}

// NeighborWeights returns the weights parallel to Neighbors(v); nil for
// unweighted graphs.
func (g *Graph) NeighborWeights(v int) []uint32 {
	if g.Weights == nil {
		return nil
	}
	return g.Weights[g.Offsets[v]:g.Offsets[v+1]]
}

// Transpose returns the reverse graph (in-edges become out-edges),
// preserving weights.
func (g *Graph) Transpose() *Graph {
	edges := make([]Edge, 0, len(g.Edges))
	for v := 0; v < g.N; v++ {
		ws := g.NeighborWeights(v)
		for i, d := range g.Neighbors(v) {
			var w uint32
			if ws != nil {
				w = ws[i]
			}
			edges = append(edges, Edge{Src: d, Dst: uint32(v), W: w})
		}
	}
	return FromEdges(g.N, edges)
}

// Properties summarizes a graph for Table I.
type Properties struct {
	Name      string
	V         int
	E         int64
	AvgDegree float64
	MaxDout   int
	MaxDin    int
}

// Analyze computes the Table I properties of g.
func Analyze(name string, g *Graph) Properties {
	p := Properties{Name: name, V: g.N, E: g.NumEdges()}
	if g.N > 0 {
		p.AvgDegree = float64(p.E) / float64(g.N)
	}
	din := make([]int, g.N)
	for v := 0; v < g.N; v++ {
		if d := g.Degree(v); d > p.MaxDout {
			p.MaxDout = d
		}
		for _, u := range g.Neighbors(v) {
			din[u]++
		}
	}
	for _, d := range din {
		if d > p.MaxDin {
			p.MaxDin = d
		}
	}
	return p
}

// String formats the properties as a Table I row.
func (p Properties) String() string {
	return fmt.Sprintf("%-10s |V|=%-10d |E|=%-12d E/V=%-6.1f maxDout=%-8d maxDin=%d",
		p.Name, p.V, p.E, p.AvgDegree, p.MaxDout, p.MaxDin)
}

// Validate checks structural invariants; it returns an error describing the
// first violation found.
func (g *Graph) Validate() error {
	if len(g.Offsets) != g.N+1 {
		return fmt.Errorf("graph: offsets len %d, want %d", len(g.Offsets), g.N+1)
	}
	if g.Offsets[0] != 0 || g.Offsets[g.N] != int64(len(g.Edges)) {
		return fmt.Errorf("graph: offset bounds [%d,%d] with %d edges",
			g.Offsets[0], g.Offsets[g.N], len(g.Edges))
	}
	for v := 0; v < g.N; v++ {
		if g.Offsets[v] > g.Offsets[v+1] {
			return fmt.Errorf("graph: offsets not monotone at %d", v)
		}
	}
	for _, d := range g.Edges {
		if int(d) >= g.N {
			return fmt.Errorf("graph: edge target %d out of range", d)
		}
	}
	if g.Weights != nil && len(g.Weights) != len(g.Edges) {
		return fmt.Errorf("graph: weights len %d, edges %d", len(g.Weights), len(g.Edges))
	}
	return nil
}
