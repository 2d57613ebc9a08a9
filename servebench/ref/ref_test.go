package ref

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/count"
	"repro/internal/parser"
	"repro/internal/structure"
)

var testArity = map[string]int{"E": 2, "F": 2, "T": 3}

func randomFacts(rng *rand.Rand, n int, density float64) *Facts {
	f := NewFacts(testArity)
	for i := 0; i < n; i++ {
		f.Elem(fmt.Sprintf("e%d", i))
	}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			for _, r := range []string{"E", "F"} {
				if rng.Float64() < density {
					f.Add(r, int32(a), int32(b))
				}
			}
			for c := 0; c < n; c++ {
				if rng.Float64() < density/4 {
					f.Add("T", int32(a), int32(b), int32(c))
				}
			}
		}
	}
	return f
}

// randomQuery draws a union of 1–3 conjunctive queries over 1–3 liberal
// variables; atoms mix liberal and quantified variables, may repeat a
// variable, and a disjunct may leave a liberal variable out.
func randomQuery(rng *rand.Rand) Query {
	lib := []string{"x", "y", "z"}[:1+rng.Intn(3)]
	vars := append(append([]string(nil), lib...), "u", "v")
	q := Query{Name: "q", Lib: lib}
	for d := 0; d < 1+rng.Intn(3); d++ {
		var cq CQ
		for a := 0; a < 1+rng.Intn(3); a++ {
			rel := []string{"E", "F", "T"}[rng.Intn(3)]
			args := make([]string, testArity[rel])
			for i := range args {
				args[i] = vars[rng.Intn(len(vars))]
			}
			cq = append(cq, Atom{Rel: rel, Args: args})
		}
		q.Disjuncts = append(q.Disjuncts, cq)
	}
	return q
}

func toStructure(t *testing.T, f *Facts) *structure.Structure {
	t.Helper()
	sig := structure.MustSignature(
		structure.RelSym{Name: "E", Arity: 2},
		structure.RelSym{Name: "F", Arity: 2},
		structure.RelSym{Name: "T", Arity: 3},
	)
	b, err := parser.ParseStructure(f.Text(), sig)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCountMatchesBruteEngine compares the reference evaluator with the
// repository's brute-force engine on tiny random structures and random
// unions of conjunctive queries.
func TestCountMatchesBruteEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		f := randomFacts(rng, 2+rng.Intn(4), 0.1+0.4*rng.Float64())
		b := toStructure(t, f)
		q := randomQuery(rng)
		lq, err := parser.ParseQuery(q.Text())
		if err != nil {
			t.Fatalf("parse %q: %v", q.Text(), err)
		}
		c, err := core.NewCounter(lq, b.Signature(), count.EngineBrute)
		if err != nil {
			t.Fatalf("compile %q: %v", q.Text(), err)
		}
		want, err := c.Count(b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := New(f).Count(q)
		if err != nil {
			t.Fatal(err)
		}
		if want.String() != fmt.Sprint(got) {
			t.Fatalf("trial %d: %s on\n%s\nref %d, brute engine %v", trial, q.Text(), f.Text(), got, want)
		}
	}
}

// TestDigraphMatchesBruteEngine checks the adjacency-set counts of the
// stream subscriptions against the brute-force engine.
func TestDigraphMatchesBruteEngine(t *testing.T) {
	queries := []string{
		"m(x,y) := E(x,y) & E(y,x)",
		"t(x,y,z) := E(x,y) & E(y,z) & E(z,x)",
		"h(x,y) := exists w . E(x,w) & E(w,y)",
	}
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(6)
		f := randomFacts(rng, n, 0.2+0.5*rng.Float64())
		g := NewDigraph(n)
		for _, e := range f.Rels["E"] {
			g.Add(e[0], e[1])
		}
		b := toStructure(t, f)
		got := []uint64{g.Mutual(), g.Triangles(), g.TwoHop()}
		for i, src := range queries {
			c, err := core.NewCounter(parser.MustQuery(src), b.Signature(), count.EngineBrute)
			if err != nil {
				t.Fatal(err)
			}
			want, err := c.Count(b)
			if err != nil {
				t.Fatal(err)
			}
			if want.String() != fmt.Sprint(got[i]) {
				t.Fatalf("trial %d: %s: digraph %d, brute engine %v", trial, src, got[i], want)
			}
		}
	}
}
