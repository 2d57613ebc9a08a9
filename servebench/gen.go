package main

import (
	"fmt"
	"math/rand"

	"repro/servebench/ref"
)

// Input generation.  Every input is a pure function of the run's seed:
// the structures are built as ref.Facts (the reference evaluator's own
// copy) and only their rendered fact text and the query texts reach the
// server.

var socialArity = map[string]int{"Follows": 2, "Likes": 2, "Member": 2}

// social is one generated social graph: persons with directed Follows
// edges, Likes edges to items, and one Member edge per person to a
// group.  The degree sequences are fixed and only the wiring is drawn
// from the seed: every person follows two others and is followed by
// two, likes two items, and belongs to one group; items and groups are
// equally popular; exactly 30% of those follows are reciprocated; and
// exactly half of the persons also follow a followee of a followee
// (triadic closure, as in real social graphs, which makes transitive
// triangles common).  A query family's cost then varies little between
// seeds, while which persons meet which varies freely.
type social struct {
	persons, items, groups []int32
}

func genSocial(rng *rand.Rand, f *ref.Facts, tag string, nP, nI, nG int) social {
	var s social
	for i := 0; i < nP; i++ {
		s.persons = append(s.persons, f.Elem(fmt.Sprintf("%sp%d", tag, i)))
	}
	for i := 0; i < nI; i++ {
		s.items = append(s.items, f.Elem(fmt.Sprintf("%si%d", tag, i)))
	}
	for i := 0; i < nG; i++ {
		s.groups = append(s.groups, f.Elem(fmt.Sprintf("%sg%d", tag, i)))
	}
	out := deal(rng, nP, nP, 2, true)
	var follows [][2]int
	for i, js := range out {
		for _, j := range js {
			follows = append(follows, [2]int{i, j})
		}
	}
	for _, e := range follows {
		f.Add("Follows", s.persons[e[0]], s.persons[e[1]])
	}
	for _, k := range rng.Perm(len(follows))[:len(follows)*3/10] {
		f.Add("Follows", s.persons[follows[k][1]], s.persons[follows[k][0]])
	}
	for _, i := range rng.Perm(nP)[:nP/2] {
		j := out[i][rng.Intn(len(out[i]))]
		if k := out[j][rng.Intn(len(out[j]))]; k != i {
			f.Add("Follows", s.persons[i], s.persons[k])
		}
	}
	if nI > 1 {
		for i, js := range deal(rng, nP, nI, 2, false) {
			for _, j := range js {
				f.Add("Likes", s.persons[i], s.items[j])
			}
		}
	}
	if nG > 0 {
		for i, p := range rng.Perm(nP) {
			f.Add("Member", s.persons[p], s.groups[i%nG])
		}
	}
	return s
}

// deal gives each of nSrc sources k distinct targets out of nDst so that
// every target is dealt equally often (up to one): a configuration
// model.  The targets are listed round-robin, shuffled and dealt k at a
// time; a card that would repeat a target of the same source, or be the
// source itself when self is set, is swapped with a later card.
func deal(rng *rand.Rand, nSrc, nDst, k int, self bool) [][]int {
	pool := make([]int, nSrc*k)
	for i := range pool {
		pool[i] = i % nDst
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	out := make([][]int, nSrc)
	for i := range out {
		bad := func(t int) bool {
			if self && t == i {
				return true
			}
			for _, u := range out[i] {
				if u == t {
					return true
				}
			}
			return false
		}
		for c := 0; c < k; c++ {
			pos := i*k + c
			for tries := 0; bad(pool[pos]) && tries < 64 && pos+1 < len(pool); tries++ {
				j := pos + 1 + rng.Intn(len(pool)-pos-1)
				pool[pos], pool[j] = pool[j], pool[pos]
			}
			out[i] = append(out[i], pool[pos])
		}
	}
	return out
}

// pathStep is one hop of a path disjunct between two person variables.
type pathStep byte

const (
	stepFollow  pathStep = 'F' // Follows(a,b)
	stepFollowB pathStep = 'B' // Follows(b,a)
	stepCoLike  pathStep = 'L' // Likes(a,i) & Likes(b,i)
	stepGroup   pathStep = 'M' // Member(a,g) & Member(b,g)
)

// sideFilters are the unary ∃-decorations a disjunct may carry on one of
// its person variables v (w is a fresh quantified variable).
var sideFilters = []func(v, w string) ref.Atom{
	func(v, w string) ref.Atom { return ref.Atom{Rel: "Likes", Args: []string{v, w}} },
	func(v, w string) ref.Atom { return ref.Atom{Rel: "Member", Args: []string{v, w}} },
	func(v, w string) ref.Atom { return ref.Atom{Rel: "Follows", Args: []string{w, v}} },
	func(v, w string) ref.Atom { return ref.Atom{Rel: "Follows", Args: []string{v, w}} },
}

// pathDisjunct draws a 2-hop path x ~ z ~ y whose inner person is
// ∃-quantified, with optional side filters.  At most one hop goes
// through items, which keeps every disjunct's answer set (and so every
// request's cost) within a narrow band.
func pathDisjunct(rng *rand.Rand, k int) (ref.CQ, string) {
	hops := 2
	var d ref.CQ
	shape := make([]byte, 0, 8)
	cur := "x"
	coLike := false
	for h := 0; h < hops; h++ {
		next := "y"
		if h < hops-1 {
			next = fmt.Sprintf("z%d%d", k, h)
		}
		st := []pathStep{stepFollow, stepFollowB, stepCoLike, stepGroup}[rng.Intn(4)]
		if st == stepCoLike && coLike {
			st = stepFollow
		}
		switch st {
		case stepFollow:
			d = append(d, ref.Atom{Rel: "Follows", Args: []string{cur, next}})
		case stepFollowB:
			d = append(d, ref.Atom{Rel: "Follows", Args: []string{next, cur}})
		case stepCoLike:
			coLike = true
			i := fmt.Sprintf("i%d%d", k, h)
			d = append(d, ref.Atom{Rel: "Likes", Args: []string{cur, i}}, ref.Atom{Rel: "Likes", Args: []string{next, i}})
		case stepGroup:
			g := fmt.Sprintf("g%d%d", k, h)
			d = append(d, ref.Atom{Rel: "Member", Args: []string{cur, g}}, ref.Atom{Rel: "Member", Args: []string{next, g}})
		}
		shape = append(shape, byte(st))
		cur = next
	}
	// Decorate each person of the path — the endpoints and the inner
	// hop — with a side filter, each with probability one half.  With
	// 2000 disjunct shapes, a run draws few shapes twice, so the memo
	// hits of repeated single-disjunct terms stay rare.
	for pos := 0; pos <= hops; pos++ {
		if rng.Intn(2) == 0 {
			shape = append(shape, '-')
			continue
		}
		v := "x"
		switch {
		case pos == hops:
			v = "y"
		case pos > 0:
			v = fmt.Sprintf("z%d%d", k, pos-1)
		}
		fi := rng.Intn(len(sideFilters))
		d = append(d, sideFilters[fi](v, fmt.Sprintf("w%d%d", k, pos)))
		shape = append(shape, byte('a'+fi))
	}
	return d, string(shape)
}

// triangleDisjunct draws a triangle over the liberal x, y, z —
// transitive (a→b, b→c, a→c, the pattern triadic closure makes common)
// or cyclic (a→b, b→c, c→a, rare in the generated graphs), each with
// probability one half — optionally decorated with one side filter.
// Its core has treewidth 2, so the trichotomy routes it to the sampling
// estimator in approx mode.
func triangleDisjunct(rng *rand.Rand, k int) (ref.CQ, string) {
	vs := []string{"x", "y", "z"}
	p := rng.Perm(3)
	a, b, c := vs[p[0]], vs[p[1]], vs[p[2]]
	d := ref.CQ{
		{Rel: "Follows", Args: []string{a, b}},
		{Rel: "Follows", Args: []string{b, c}},
	}
	kind := byte('t')
	if rng.Intn(2) == 0 {
		d = append(d, ref.Atom{Rel: "Follows", Args: []string{a, c}})
	} else {
		// The three rotations of a cycle are one pattern: name it by
		// the rotation that starts at its smallest variable.
		kind = 'c'
		for p[0] != 0 {
			p = []int{p[1], p[2], p[0]}
		}
		d = append(d, ref.Atom{Rel: "Follows", Args: []string{c, a}})
	}
	shape := []byte{kind, byte('0' + p[0]), byte('0' + p[1]), byte('0' + p[2])}
	if rng.Intn(2) == 0 {
		pos := rng.Intn(3)
		fi := rng.Intn(len(sideFilters))
		d = append(d, sideFilters[fi](vs[pos], fmt.Sprintf("w%d", k)))
		shape = append(shape, '+', byte('0'+pos), byte('a'+fi))
	}
	return d, string(shape)
}

// exploreQuery is one ad-hoc request of the explore workload.
type exploreQuery struct {
	q      ref.Query
	approx bool
}

// exploreDeck draws pairwise distinct explore queries on demand: unions
// of three path disjuncts over liberal (x, y), and — exactly one in
// every round of exploreRound, at a seeded position, sent in approx
// mode — unions of two triangle disjuncts over liberal (x, y, z).  Each
// family has one union size, so request costs cluster and every round
// has the same mix.  Two queries are distinct when their sets of
// disjunct shapes differ, so no query text repeats within a run.
type exploreDeck struct {
	rng  *rand.Rand
	seen map[string]bool
	qs   []exploreQuery
	slot int
}

func newExploreDeck(rng *rand.Rand) *exploreDeck {
	return &exploreDeck{rng: rng, seen: map[string]bool{}}
}

// at returns the i-th query of the deck, drawing up to it as needed.
func (dk *exploreDeck) at(i int) exploreQuery {
	for len(dk.qs) <= i {
		n := len(dk.qs)
		if n%exploreRound == 0 {
			dk.slot = dk.rng.Intn(exploreRound)
		}
		approx := n%exploreRound == dk.slot
		var q ref.Query
		var shapes []string
		if approx {
			q = ref.Query{Lib: []string{"x", "y", "z"}}
			for k := 0; k < 2; k++ {
				d, s := triangleDisjunct(dk.rng, k)
				q.Disjuncts = append(q.Disjuncts, d)
				shapes = append(shapes, s)
			}
		} else {
			q = ref.Query{Lib: []string{"x", "y"}}
			for k := 0; k < 3; k++ {
				d, s := pathDisjunct(dk.rng, k)
				q.Disjuncts = append(q.Disjuncts, d)
				shapes = append(shapes, s)
			}
		}
		key := canonShapes(shapes)
		if dk.seen[key] {
			continue
		}
		dk.seen[key] = true
		q.Name = fmt.Sprintf("e%d", n)
		dk.qs = append(dk.qs, exploreQuery{q: q, approx: approx})
	}
	return dk.qs[i]
}

// canonShapes renders a set of disjunct shapes order-independently.
func canonShapes(s []string) string {
	c := append([]string(nil), s...)
	for i := 1; i < len(c); i++ {
		for j := i; j > 0 && c[j] < c[j-1]; j-- {
			c[j], c[j-1] = c[j-1], c[j]
		}
	}
	out := ""
	for _, x := range c {
		out += x + "|"
	}
	return out
}

// streamBatch draws one append batch of Follows facts over the stream
// graph g (which it updates): a mix of random follows, follow-backs
// (new mutual pairs) and friend-of-friend follows x→z over x→y→z (new
// 2-hop pairs and transitive triangles).  A closing batch also holds
// one follow z→x over x→y→z, which closes a directed triangle; every
// other follow of every batch is drawn so that it closes none.  The
// caller decides which batches close a triangle (see streamCloseEvery).
func streamBatch(rng *rand.Rand, g *ref.Digraph, out [][]int32, size int, closing bool) [][2]int32 {
	n := len(out)
	var b [][2]int32
	// add inserts u→v unless it is a loop, or it would close a triangle
	// where none may close, and reports whether it did.
	add := func(u, v int32, mayClose bool) bool {
		if u == v || (!mayClose && g.ClosesCycle(u, v)) {
			return false
		}
		b = append(b, [2]int32{u, v})
		if g.Add(u, v) {
			out[u] = append(out[u], v)
		}
		return true
	}
	// twoPath returns a random path x→y→z, or ok=false.
	twoPath := func() (x, y, z int32, ok bool) {
		for tries := 0; tries < 64; tries++ {
			x = int32(rng.Intn(n))
			if len(out[x]) == 0 {
				continue
			}
			y = out[x][rng.Intn(len(out[x]))]
			if len(out[y]) == 0 {
				continue
			}
			z = out[y][rng.Intn(len(out[y]))]
			if z != x {
				return x, y, z, true
			}
		}
		return 0, 0, 0, false
	}
	for len(b) < size {
		switch k := len(b) % 10; {
		case k == 1 || k == 6:
			// Follow-back: a follower of someone is followed back.
			u := int32(rng.Intn(n))
			if len(out[u]) > 0 && add(out[u][rng.Intn(len(out[u]))], u, false) {
				continue
			}
		case k == 3 || k == 8:
			if x, _, z, ok := twoPath(); ok && add(x, z, false) {
				continue
			}
		case k >= 5 && closing:
			if x, _, z, ok := twoPath(); ok && !g.Has(z, x) && add(z, x, true) {
				closing = false
				continue
			}
		}
		add(int32(rng.Intn(n)), int32(rng.Intn(n)), false)
	}
	return b
}
