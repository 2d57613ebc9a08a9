package ref

import "math/bits"

// Digraph counts the stream subscriptions from adjacency sets: it holds
// a directed edge set over n vertices as out- and in-neighbour bitsets
// and answers mutual-follow, directed-triangle and 2-hop counts without
// any query machinery.
type Digraph struct {
	n       int
	words   int
	out, in [][]uint64
	edges   int
}

// NewDigraph returns an empty digraph over n vertices.
func NewDigraph(n int) *Digraph {
	w := (n + 63) / 64
	g := &Digraph{n: n, words: w, out: make([][]uint64, n), in: make([][]uint64, n)}
	for i := range g.out {
		g.out[i] = make([]uint64, w)
		g.in[i] = make([]uint64, w)
	}
	return g
}

// Add inserts the edge u→v and reports whether it was new.
func (g *Digraph) Add(u, v int32) bool {
	if g.Has(u, v) {
		return false
	}
	g.out[u][v/64] |= 1 << (uint(v) % 64)
	g.in[v][u/64] |= 1 << (uint(u) % 64)
	g.edges++
	return true
}

// Has reports whether u→v is an edge.
func (g *Digraph) Has(u, v int32) bool { return g.out[u][v/64]&(1<<(uint(v)%64)) != 0 }

// ClosesCycle reports whether adding u→v would close a directed
// triangle u→v→w→u.
func (g *Digraph) ClosesCycle(u, v int32) bool {
	for w := 0; w < g.words; w++ {
		if g.out[v][w]&g.in[u][w] != 0 {
			return true
		}
	}
	return false
}

// Edges returns the number of distinct edges.
func (g *Digraph) Edges() int { return g.edges }

// Mutual counts ordered pairs (x,y) with x→y and y→x.
func (g *Digraph) Mutual() uint64 {
	var c uint64
	for x := 0; x < g.n; x++ {
		for w := 0; w < g.words; w++ {
			c += uint64(bits.OnesCount64(g.out[x][w] & g.in[x][w]))
		}
	}
	return c
}

// Triangles counts ordered triples (x,y,z) with x→y, y→z and z→x.
func (g *Digraph) Triangles() uint64 {
	var c uint64
	for x := 0; x < g.n; x++ {
		forEach(g.out[x], func(y int) {
			for w := 0; w < g.words; w++ {
				c += uint64(bits.OnesCount64(g.out[y][w] & g.in[x][w]))
			}
		})
	}
	return c
}

// TwoHop counts ordered pairs (x,y) joined by a directed 2-path
// x→z→y for some z.
func (g *Digraph) TwoHop() uint64 {
	var c uint64
	acc := make([]uint64, g.words)
	for x := 0; x < g.n; x++ {
		for w := range acc {
			acc[w] = 0
		}
		forEach(g.out[x], func(z int) {
			for w := range acc {
				acc[w] |= g.out[z][w]
			}
		})
		for _, a := range acc {
			c += uint64(bits.OnesCount64(a))
		}
	}
	return c
}

func forEach(set []uint64, fn func(i int)) {
	for w, word := range set {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			fn(w*64 + b)
			word &= word - 1
		}
	}
}
