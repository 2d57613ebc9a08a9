// Package ref is the benchmark's independent reference evaluator.  It
// counts the answers of a union of conjunctive queries by plain joins
// over its own copy of the facts: each disjunct's answer set over the
// liberal variables is built by a join-then-project pipeline, the sets
// are unioned, and the union is counted.  It shares no code with the
// counting service — no inclusion–exclusion, no fingerprints, no
// engine — so agreement with the service is evidence, not tautology.
package ref

import (
	"fmt"
	"math/bits"
	"strings"
)

// Atom is one relational atom R(v1,...,vk) over variable names.
type Atom struct {
	Rel  string
	Args []string
}

// CQ is a conjunction of atoms; its variables that are not liberal
// variables of the enclosing query are existentially quantified.
type CQ []Atom

// Query is a union of conjunctive queries over the liberal variables
// Lib.  A liberal variable absent from a disjunct ranges over the whole
// universe in that disjunct.
type Query struct {
	Name      string
	Lib       []string
	Disjuncts []CQ
}

// Text renders the query in the service's query syntax.
func (q Query) Text() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s(%s) := ", q.Name, strings.Join(q.Lib, ","))
	lib := make(map[string]bool, len(q.Lib))
	for _, v := range q.Lib {
		lib[v] = true
	}
	for i, d := range q.Disjuncts {
		if i > 0 {
			sb.WriteString(" | ")
		}
		var ex []string
		seen := map[string]bool{}
		for _, a := range d {
			for _, v := range a.Args {
				if !lib[v] && !seen[v] {
					seen[v] = true
					ex = append(ex, v)
				}
			}
		}
		if len(ex) > 0 {
			fmt.Fprintf(&sb, "exists %s . ", strings.Join(ex, ", "))
		}
		for j, a := range d {
			if j > 0 {
				sb.WriteString(" & ")
			}
			fmt.Fprintf(&sb, "%s(%s)", a.Rel, strings.Join(a.Args, ","))
		}
	}
	return sb.String()
}

// Facts is a structure: a universe of named elements and, per relation,
// its tuples as element indices.
type Facts struct {
	Universe []string
	Rels     map[string][][]int32
	// Arity fixes each relation's arity (relations may be empty).
	Arity map[string]int
}

// NewFacts returns an empty structure over the given relation arities.
func NewFacts(arity map[string]int) *Facts {
	f := &Facts{Rels: map[string][][]int32{}, Arity: map[string]int{}}
	for r, k := range arity {
		f.Arity[r] = k
		f.Rels[r] = nil
	}
	return f
}

// Elem appends a fresh element and returns its index.
func (f *Facts) Elem(name string) int32 {
	f.Universe = append(f.Universe, name)
	return int32(len(f.Universe) - 1)
}

// Add appends one tuple (duplicates are the caller's concern; the
// evaluator deduplicates answers, not facts).
func (f *Facts) Add(rel string, t ...int32) {
	f.Rels[rel] = append(f.Rels[rel], append([]int32(nil), t...))
}

// NumTuples returns the number of stored tuples, duplicates included.
func (f *Facts) NumTuples() int {
	n := 0
	for _, ts := range f.Rels {
		n += len(ts)
	}
	return n
}

// Text renders the facts in the service's fact syntax, with a universe
// declaration so isolated elements exist.
func (f *Facts) Text() string {
	var sb strings.Builder
	sb.WriteString("universe ")
	sb.WriteString(strings.Join(f.Universe, ", "))
	sb.WriteString(".\n")
	for _, r := range sortedKeys(f.Rels) {
		for _, t := range f.Rels[r] {
			WriteFact(&sb, f.Universe, r, t)
		}
	}
	return sb.String()
}

// WriteFact writes one fact "R(a,b). " in the service's syntax.
func WriteFact(sb *strings.Builder, universe []string, rel string, t []int32) {
	sb.WriteString(rel)
	sb.WriteByte('(')
	for i, v := range t {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(universe[v])
	}
	sb.WriteString("). ")
}

func sortedKeys(m map[string][][]int32) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	for i := 1; i < len(ks); i++ {
		for j := i; j > 0 && ks[j] < ks[j-1]; j-- {
			ks[j], ks[j-1] = ks[j-1], ks[j]
		}
	}
	return ks
}

// index maps (relation, position, value) to the tuples carrying value
// at that position.
type index map[string][]map[int32][][]int32

func buildIndex(f *Facts) index {
	ix := index{}
	for r, ts := range f.Rels {
		k := f.Arity[r]
		ix[r] = make([]map[int32][][]int32, k)
		for p := 0; p < k; p++ {
			m := map[int32][][]int32{}
			for _, t := range ts {
				m[t[p]] = append(m[t[p]], t)
			}
			ix[r][p] = m
		}
	}
	return ix
}

// Evaluator counts queries over one fixed structure.
type Evaluator struct {
	f  *Facts
	ix index
}

// New indexes the facts for evaluation.  The facts must not change
// afterwards.
func New(f *Facts) *Evaluator { return &Evaluator{f: f, ix: buildIndex(f)} }

// Count returns the number of liberal-variable assignments satisfying
// at least one disjunct: the size of the union of the disjuncts' answer
// sets.
func (e *Evaluator) Count(q Query) (uint64, error) {
	u := uint64(len(e.f.Universe))
	k := len(q.Lib)
	if u == 0 {
		return 0, nil
	}
	if k > 0 && uint64(bits.Len64(u))*uint64(k) > 63 {
		return 0, fmt.Errorf("ref: %d liberal variables over %d elements overflow the tuple key", k, u)
	}
	union := map[uint64]struct{}{}
	for _, d := range q.Disjuncts {
		if err := e.answers(q.Lib, d, func(key uint64) { union[key] = struct{}{} }); err != nil {
			return 0, err
		}
	}
	return uint64(len(union)), nil
}

// answers enumerates the disjunct's answer set over lib, each tuple once,
// as packed keys Σ v_i·U^i.
func (e *Evaluator) answers(lib []string, d CQ, emit func(uint64)) error {
	for _, a := range d {
		k, ok := e.f.Arity[a.Rel]
		if !ok {
			return fmt.Errorf("ref: unknown relation %s", a.Rel)
		}
		if k != len(a.Args) {
			return fmt.Errorf("ref: %s used with arity %d, want %d", a.Rel, len(a.Args), k)
		}
	}
	isLib := map[string]bool{}
	for _, v := range lib {
		isLib[v] = true
	}
	order := joinOrder(d, lib)
	// rows holds the current partial bindings over cols, deduplicated
	// after every join step; a variable is dropped from cols as soon as
	// no later atom mentions it and it is not liberal.
	var cols []string
	rows := [][]int32{{}}
	for step, ai := range order {
		a := d[ai]
		pos := map[string]int{}
		for i, c := range cols {
			pos[c] = i
		}
		var newVars []string
		for _, v := range a.Args {
			if _, ok := pos[v]; !ok && !contains(newVars, v) {
				newVars = append(newVars, v)
			}
		}
		keep := map[string]bool{}
		for _, v := range cols {
			keep[v] = true
		}
		for _, v := range newVars {
			keep[v] = true
		}
		later := map[string]bool{}
		for _, aj := range order[step+1:] {
			for _, v := range d[aj].Args {
				later[v] = true
			}
		}
		var next []string
		for _, v := range append(append([]string(nil), cols...), newVars...) {
			if keep[v] && (isLib[v] || later[v]) {
				next = append(next, v)
			}
		}
		rows = e.joinStep(rows, cols, a, newVars, next)
		cols = next
		if len(rows) == 0 {
			return nil
		}
	}
	// Expand liberal variables the disjunct does not mention over the
	// universe, then pack each liberal tuple.
	u := uint64(len(e.f.Universe))
	colOf := map[string]int{}
	for i, c := range cols {
		colOf[c] = i
	}
	vals := make([]uint64, len(lib))
	var rec func(row []int32, i int)
	rec = func(row []int32, i int) {
		if i == len(lib) {
			var key, mul uint64 = 0, 1
			for _, v := range vals {
				key += v * mul
				mul *= u
			}
			emit(key)
			return
		}
		if c, ok := colOf[lib[i]]; ok {
			vals[i] = uint64(row[c])
			rec(row, i+1)
			return
		}
		for x := uint64(0); x < u; x++ {
			vals[i] = x
			rec(row, i+1)
		}
	}
	for _, row := range rows {
		rec(row, 0)
	}
	return nil
}

// joinStep joins every partial binding with the atom's matching tuples
// and projects the result onto next, deduplicating.
func (e *Evaluator) joinStep(rows [][]int32, cols []string, a Atom, newVars, next []string) [][]int32 {
	colPos := map[string]int{}
	for i, c := range cols {
		colPos[c] = i
	}
	newPos := map[string]int{}
	for i, v := range newVars {
		newPos[v] = i
	}
	// Pick an argument position bound by the partial binding to probe
	// the index with; without one, scan the relation.
	probe := -1
	for p, v := range a.Args {
		if _, ok := colPos[v]; ok {
			probe = p
			break
		}
	}
	src := make([]int, len(next)) // ≥0: old column; <0: -(new var index)-1
	for i, v := range next {
		if c, ok := colPos[v]; ok {
			src[i] = c
		} else {
			src[i] = -newPos[v] - 1
		}
	}
	seen := map[string]struct{}{}
	var out [][]int32
	bind := make([]int32, len(newVars))
	bound := make([]bool, len(newVars))
	key := make([]byte, 0, 4*len(next))
	for _, row := range rows {
		var cands [][]int32
		if probe >= 0 {
			cands = e.ix[a.Rel][probe][row[colPos[a.Args[probe]]]]
		} else {
			cands = e.f.Rels[a.Rel]
		}
	tuples:
		for _, t := range cands {
			for i := range bound {
				bound[i] = false
			}
			for p, v := range a.Args {
				if c, ok := colPos[v]; ok {
					if row[c] != t[p] {
						continue tuples
					}
					continue
				}
				j := newPos[v]
				if bound[j] && bind[j] != t[p] {
					continue tuples
				}
				bind[j], bound[j] = t[p], true
			}
			key = key[:0]
			for _, s := range src {
				var x int32
				if s >= 0 {
					x = row[s]
				} else {
					x = bind[-s-1]
				}
				key = append(key, byte(x), byte(x>>8), byte(x>>16), byte(x>>24))
			}
			if _, dup := seen[string(key)]; dup {
				continue
			}
			seen[string(key)] = struct{}{}
			nr := make([]int32, len(next))
			for i, s := range src {
				if s >= 0 {
					nr[i] = row[s]
				} else {
					nr[i] = bind[-s-1]
				}
			}
			out = append(out, nr)
		}
	}
	return out
}

// joinOrder orders the atoms so that each one after the first shares
// as many variables as possible with those already joined (liberal
// variables first), keeping intermediate results connected.
func joinOrder(d CQ, lib []string) []int {
	used := make([]bool, len(d))
	bound := map[string]bool{}
	var order []int
	for len(order) < len(d) {
		best, bestScore := -1, -1
		for i, a := range d {
			if used[i] {
				continue
			}
			score := 0
			for _, v := range a.Args {
				if bound[v] {
					score += 4
				}
			}
			if len(order) == 0 {
				for _, v := range a.Args {
					if len(lib) > 0 && v == lib[0] {
						score += 2
					}
				}
			}
			if score > bestScore {
				best, bestScore = i, score
			}
		}
		used[best] = true
		order = append(order, best)
		for _, v := range d[best].Args {
			bound[v] = true
		}
	}
	return order
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}
