package main

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"sync"
	"time"

	"repro/internal/approx"
	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/count"
	"repro/internal/engine"
	"repro/internal/eptrans"
	"repro/internal/hom"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/pp"
	"repro/internal/serve"
	"repro/internal/structure"
	"repro/servebench/ref"
)

// explore: one client sends ad-hoc unions over one social graph; no
// query repeats, so every layer from the parser to the join DP runs on
// every request.
const (
	explorePersons = 240
	exploreItems   = 240
	exploreGroups  = 60
	// exploreRound is the number of requests in one round: the run
	// attempts whole rounds, and the live heap is taken after the first
	// one (the session keeps state for every distinct query it saw, so
	// a heap taken at the end would count the requests completed).
	exploreRound = 40
	// The approx requests' fixed (ε, δ) target and sampler seed; the
	// sample budget is the engine's default.
	approxEps   = 0.25
	approxDelta = 0.1
	approxSeed  = 7
	// exploreTraceOps is the number of fresh deck queries the traced
	// run sends through the layers: one round.
	exploreTraceOps = exploreRound
)

type exploreResp struct {
	idx   int
	count *big.Int
}

func runExplore(cfg config) (*result, error) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(cfg.seed))
	f := ref.NewFacts(socialArity)
	genSocial(rng, f, "", explorePersons, exploreItems, exploreGroups)
	facts := f.Text()
	deck := newExploreDeck(rng)

	// build starts a node, loads the graph and primes it.  Every round
	// of the timed part runs on a node of its own, so every round starts
	// from the same engine state: a session's tables and memos fill as
	// it sees queries (per-round latencies fell by a third over the
	// first few rounds on one node, then rose again when the session
	// memo wrapped), which would make a round's cost depend on how many
	// rounds ran before it.
	var cl *serve.Client
	build := func() (func(), error) {
		srv, c, err := startNode(serve.Config{})
		if err != nil {
			return nil, err
		}
		if _, err := c.CreateStructure(ctx, "social", facts, nil); err != nil {
			shutdown(srv)
			return nil, err
		}
		// Prime the session with the dashboard panels: their atom and
		// ∃-component tables are the common building blocks.
		for _, p := range panels {
			if _, _, err := c.Count(ctx, p.Text(), "social"); err != nil {
				shutdown(srv)
				return nil, err
			}
		}
		cl = c
		return func() { shutdown(srv) }, nil
	}
	setup, setupTimes, teardown, err := repeatSetup(build)
	if err != nil {
		return nil, err
	}
	defer func() { teardown() }()
	newRound := func() error {
		teardown()
		td, err := build()
		if err != nil {
			teardown = func() {}
			return err
		}
		teardown = td
		return nil
	}

	var resps []exploreResp
	evict0 := engine.SessionStats().Evictions
	l := closedLoop(loopSpec{clients: 1, round: exploreRound, dur: cfg.dur, firstRoundHeap: true, newRound: newRound}, func(_, i int) error {
		eq := deck.at(i)
		req := serve.CountRequest{Query: eq.q.Text(), Structure: "social"}
		if eq.approx {
			req.Mode, req.Epsilon, req.Delta, req.Seed = "approx", approxEps, approxDelta, approxSeed
		}
		v, _, err := cl.CountWith(ctx, req)
		if err != nil {
			return err
		}
		resps = append(resps, exploreResp{idx: i, count: v})
		return nil
	})

	evicted := engine.SessionStats().Evictions - evict0
	if l.err != nil {
		return nil, fmt.Errorf("starting a round's node: %w", l.err)
	}
	res := &result{correct: true, attempted: l.attempted, failed: l.failed}
	res.line("explore: %d persons, %d tuples; %d requests in rounds of %d (%d failed), setup runs %v", explorePersons, f.NumTuples(), l.attempted, exploreRound, l.failed, setupTimes)

	// Every response against the reference evaluator.
	ev := ref.New(f)
	want, err := refCounts(ev, deck, l.attempted)
	if err != nil {
		return nil, err
	}
	nApprox, misses := 0, 0
	var approxLat []time.Duration
	for k, r := range resps {
		eq := deck.at(r.idx)
		w := new(big.Int).SetUint64(want[r.idx])
		if !eq.approx {
			res.check(r.count.Cmp(w) == 0, "explore %s: got %v want %v", eq.q.Text(), r.count, w)
			continue
		}
		nApprox++
		approxLat = append(approxLat, l.lat[k])
		if !withinEps(r.count, w, approxEps) {
			misses++
		}
	}
	var roundP50 []string
	for k := 0; k+exploreRound <= len(l.lat); k += exploreRound {
		roundP50 = append(roundP50, fmt.Sprintf("%.1f", ms(quantile(l.lat[k:k+exploreRound], 0.5))))
	}
	res.line("explore: per-round p50 ms %v", roundP50)

	res.line("explore: approx requests p50 %.1f ms, max %.1f ms (%d)", ms(quantile(approxLat, 0.5)), ms(quantile(approxLat, 1)), len(approxLat))
	allowed := binomTailBound(nApprox, approxDelta, 1e-6)
	res.line("explore: %d approx estimates, %d outside ε=%.2f of the reference (allowed %d at δ=%.2f)", nApprox, misses, approxEps, allowed, approxDelta)
	res.check(misses <= allowed, "explore: %d of %d approx estimates outside ε (allowed %d)", misses, nApprox, allowed)

	if tl, pct, ok := tail(l.lat); ok {
		res.line("op_tail_ms (p%.1f of %d ops) %.3f ms", pct, l.ops(), ms(tl))
	}
	res.setE2E(setup, l, l.rate())

	if cfg.trace {
		b, err := parser.ParseStructure(facts, nil)
		if err != nil {
			return nil, err
		}
		tr := newTracer()
		qs := make([]exploreQuery, exploreTraceOps)
		for i := range qs {
			qs[i] = deck.at(l.attempted + i)
		}
		vals, err := traceExplore(ctx, tr, res, b, f, qs, ev)
		if err != nil {
			return nil, err
		}
		vals["trace.untraced_op_ms"] = ms(meanDur(l.lat))
		vals["engine.sessions_evicted"] = float64(evicted)
		res.attempted += exploreTraceOps
		if err := finishTrace(tr, res, cfg, "explore", vals); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// refCounts evaluates the first n deck queries on two workers.
func refCounts(ev *ref.Evaluator, deck *exploreDeck, n int) ([]uint64, error) {
	out := make([]uint64, n)
	errs := make([]error, n)
	if n > 0 {
		deck.at(n - 1)
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += 2 {
				out[i], errs[i] = ev.Count(deck.qs[i].q)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// withinEps reports |got − want| ≤ ε·want.
func withinEps(got, want *big.Int, eps float64) bool {
	d := new(big.Float).SetInt(new(big.Int).Sub(got, want))
	d.Abs(d)
	lim := new(big.Float).Mul(new(big.Float).SetInt(want), big.NewFloat(eps))
	return d.Cmp(lim) <= 0
}

// traceExplore sends fresh deck queries through the layers one call at
// a time: parse, the Theorem 3.1 front-end (IE expansion and interning),
// classification, planning, a cold count on a fresh session and a rerun
// on the same session (their difference is materialization), and for
// approx queries the routed estimator.  A probe re-runs hom's
// extendable-assignment enumeration over each term's ∃-components.
func traceExplore(ctx context.Context, tr *tracer, res *result, b *structure.Structure, f *ref.Facts, qs []exploreQuery, ev *ref.Evaluator) (map[string]float64, error) {
	vals := map[string]float64{}
	_, perFact, err := tr.probeParse([]string{f.Text()}, f.NumTuples())
	if err != nil {
		return nil, err
	}
	vals["parser.facts_us_per_fact"] = perFact
	for _, eq := range qs {
		want, err := ev.Count(eq.q)
		if err != nil {
			return nil, err
		}
		var q logic.Query
		var comp *eptrans.Compiled
		op := tr.begin("op")
		tr.do("parser.query", func() { q, err = parser.ParseQuery(eq.q.Text()) })
		if err == nil {
			tr.do("eptrans.compile", func() { comp, err = eptrans.Compile(q, b.Signature()) })
		}
		if err != nil {
			return nil, err
		}
		st := comp.Pool.Stats()
		tr.add("ie.raw_terms", float64(st.Raw))
		tr.add("term.unique_terms", float64(st.Unique))
		plans := make([]engine.Plan, len(comp.Minus))
		for i, t := range comp.Minus {
			// The analysis AnalyzeKeyed runs on a memo miss: the
			// process-wide memo has seen many of these fingerprints
			// in the timed part, so the keyed call would time hits.
			tr.do("classify.analyze", func() { classify.AnalyzeCored(t.Formula) })
			tr.do("engine.plan", func() { plans[i], _, err = engine.CompileKeyed(t.Formula, t.FP, engine.FPT) })
			if err != nil {
				return nil, err
			}
		}
		if len(comp.Sentences) > 0 {
			return nil, fmt.Errorf("explore query %q has sentence disjuncts", eq.q.Text())
		}
		if !eq.approx {
			sess := engine.NewSession(b)
			total := new(big.Int)
			tr.do("engine.count_cold", func() {
				for i, t := range comp.Minus {
					var v *big.Int
					if v, _, err = engine.CountKeyedCtx(ctx, plans[i], t.FP, sess, 0); err != nil {
						return
					}
					total.Add(total, new(big.Int).Mul(t.Coeff, v))
				}
			})
			if err == nil {
				tr.do("engine.count_rerun", func() {
					for i := range comp.Minus {
						if _, err = engine.CountInCtx(ctx, plans[i], sess, 0); err != nil {
							return
						}
					}
				})
			}
			if err != nil {
				return nil, err
			}
			res.check(total.Cmp(new(big.Int).SetUint64(want)) == 0, "explore traced %s: got %v want %d", eq.q.Text(), total, want)
		} else {
			var c *core.Counter
			var r core.ApproxResult
			tr.do("core.counter", func() { c, err = core.NewCounter(q, b.Signature(), count.EngineFPT) })
			if err == nil {
				tr.do("approx.estimate", func() {
					r, err = c.CountApproxCtx(ctx, b, approx.Params{Epsilon: approxEps, Delta: approxDelta, Seed: approxSeed})
				})
			}
			if err != nil {
				return nil, err
			}
			tr.add("approx.samples", float64(r.Samples))
		}
		tr.end(op)

		// Probe: hom's extendable enumeration over the ∃-components.
		tr.do("probe", func() {
			for _, t := range comp.Minus {
				cored, cerr := t.Formula.Core()
				if cerr != nil {
					err = cerr
					return
				}
				for _, ec := range pp.ExistsComponents(cored) {
					sub, old2new := cored.A.Induced(ec.Vertices)
					proj := make([]int, len(ec.Interface))
					for i, v := range ec.Interface {
						proj[i] = old2new[v]
					}
					rows := 0
					tr.do("hom.extendable", func() {
						hom.ForEachExtendable(sub, b, proj, hom.Options{}, func([]int) bool { rows++; return true })
					})
					tr.add("hom.extendable_rows", float64(rows))
				}
			}
		})
		if err != nil {
			return nil, err
		}
	}
	self, _, n := tr.layerTimes("op")
	per := func(name string) float64 { return ms(self[name]) / float64(n) }
	vals["parser.query_us"] = 1000 * per("parser.query")
	vals["eptrans.compile_ms"] = per("eptrans.compile")
	vals["classify.analyze_ms"] = per("classify.analyze")
	vals["engine.plan_ms"] = per("engine.plan")
	vals["engine.count_cold_ms"] = per("engine.count_cold")
	vals["engine.count_rerun_ms"] = per("engine.count_rerun")
	vals["approx.estimate_ms"] = per("approx.estimate")
	probe, _, _ := tr.layerTimes("probe")
	vals["hom.extendable_ms"] = ms(probe["hom.extendable"]) / float64(n)
	for _, k := range []string{"ie.raw_terms", "term.unique_terms", "hom.extendable_rows", "approx.samples"} {
		vals[k] = tr.counts[k] / float64(n)
	}
	return vals, nil
}
