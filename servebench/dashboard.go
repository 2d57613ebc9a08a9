package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/big"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/count"
	"repro/internal/engine"
	"repro/internal/eptrans"
	"repro/internal/parser"
	"repro/internal/serve"
	"repro/servebench/ref"
)

// dashboard: two clients read a fixed set of panels over tenant
// structures.  The working set fits every cache — 24 structures
// against the engine's 64 sessions, 10 query texts against the query
// cache's 256, 240 (panel, tenant) counts against each session's
// 1024-entry memo — and every panel is counted once during set-up, so
// every timed request is a memo hit.
const (
	dashTenants  = 24
	dashPersons  = 120
	dashItems    = 120
	dashGroups   = 12
	dashClients  = 2
	dashBatch    = 6 // structures per /countBatch request
	dashTraceOps = 3000
	// rateWindow is the window of the windowed throughput median.
	rateWindow = time.Second
)

// panels are the dashboard's fixed queries: social analytics of the
// kinds a tenant dashboard shows, quantifier-free, ∃-quantified, hard
// (the directed triangle) and unions.
var panels = []ref.Query{
	{Name: "mutual", Lib: []string{"x", "y"}, Disjuncts: []ref.CQ{{
		{Rel: "Follows", Args: []string{"x", "y"}}, {Rel: "Follows", Args: []string{"y", "x"}}}}},
	{Name: "tri", Lib: []string{"x", "y", "z"}, Disjuncts: []ref.CQ{{
		{Rel: "Follows", Args: []string{"x", "y"}}, {Rel: "Follows", Args: []string{"y", "z"}}, {Rel: "Follows", Args: []string{"z", "x"}}}}},
	{Name: "reach2", Lib: []string{"x", "y"}, Disjuncts: []ref.CQ{{
		{Rel: "Follows", Args: []string{"x", "z"}}, {Rel: "Follows", Args: []string{"z", "y"}}}}},
	{Name: "colike", Lib: []string{"x", "y"}, Disjuncts: []ref.CQ{{
		{Rel: "Likes", Args: []string{"x", "i"}}, {Rel: "Likes", Args: []string{"y", "i"}}}}},
	{Name: "groupmates", Lib: []string{"x", "y"}, Disjuncts: []ref.CQ{{
		{Rel: "Member", Args: []string{"x", "g"}}, {Rel: "Member", Args: []string{"y", "g"}}}}},
	{Name: "active", Lib: []string{"x"}, Disjuncts: []ref.CQ{{
		{Rel: "Follows", Args: []string{"x", "y"}}, {Rel: "Likes", Args: []string{"x", "i"}}}}},
	{Name: "reachOrColike", Lib: []string{"x", "y"}, Disjuncts: []ref.CQ{
		{{Rel: "Follows", Args: []string{"x", "z"}}, {Rel: "Follows", Args: []string{"z", "y"}}},
		{{Rel: "Likes", Args: []string{"x", "i"}}, {Rel: "Likes", Args: []string{"y", "i"}}}}},
	{Name: "influencers", Lib: []string{"x"}, Disjuncts: []ref.CQ{{
		{Rel: "Follows", Args: []string{"y", "x"}}, {Rel: "Follows", Args: []string{"z", "y"}}}}},
	{Name: "fanout", Lib: []string{"x", "y"}, Disjuncts: []ref.CQ{
		{{Rel: "Follows", Args: []string{"x", "y"}}},
		{{Rel: "Member", Args: []string{"x", "g"}}, {Rel: "Member", Args: []string{"y", "g"}}}}},
	{Name: "likedByFollowed", Lib: []string{"x", "i"}, Disjuncts: []ref.CQ{{
		{Rel: "Follows", Args: []string{"x", "y"}}, {Rel: "Likes", Args: []string{"y", "i"}}}}},
}

// panelOp is one dashboard or routed request: a panel counted on one
// structure (/count) or on several (/countBatch).
type panelOp struct {
	panel   int
	structs []string
	batch   bool
}

// tenantSet generates named tenant structures and the reference count
// of every query on every tenant.
type tenantSet struct {
	names []string
	facts []string
	ref   []*ref.Facts
	want  map[string]map[string]string // query text → structure → count
}

func genTenants(rng *rand.Rand, prefix string, n, persons, items, groups int) *tenantSet {
	ts := &tenantSet{want: map[string]map[string]string{}}
	for i := 0; i < n; i++ {
		f := ref.NewFacts(socialArity)
		genSocial(rng, f, "", persons, items, groups)
		ts.names = append(ts.names, fmt.Sprintf("%s%02d", prefix, i))
		ts.facts = append(ts.facts, f.Text())
		ts.ref = append(ts.ref, f)
	}
	return ts
}

// expect evaluates the queries on every tenant with the reference
// evaluator.
func (ts *tenantSet) expect(qs []ref.Query) error {
	for i, name := range ts.names {
		ev := ref.New(ts.ref[i])
		for _, q := range qs {
			v, err := ev.Count(q)
			if err != nil {
				return err
			}
			t := q.Text()
			if ts.want[t] == nil {
				ts.want[t] = map[string]string{}
			}
			ts.want[t][name] = fmt.Sprint(v)
		}
	}
	return nil
}

func (ts *tenantSet) tuples() int {
	n := 0
	for _, f := range ts.ref {
		n += f.NumTuples()
	}
	return n
}

// panelOps draws a client's request sequence: three in four are /count
// of a random panel on a random tenant, one in four a /countBatch of a
// random panel over dashBatch random tenants.
func panelOps(rng *rand.Rand, n int, names []string, nPanels, batch int) []panelOp {
	ops := make([]panelOp, n)
	for i := range ops {
		op := panelOp{panel: rng.Intn(nPanels)}
		if rng.Intn(4) == 0 {
			op.batch = true
			for _, j := range rng.Perm(len(names))[:batch] {
				op.structs = append(op.structs, names[j])
			}
		} else {
			op.structs = []string{names[rng.Intn(len(names))]}
		}
		ops[i] = op
	}
	return ops
}

// sendPanel issues one panel request and checks every count it returns.
func sendPanel(ctx context.Context, cl *serve.Client, text string, op panelOp, want map[string]string) (bool, error) {
	if op.batch {
		vs, _, err := cl.CountBatch(ctx, text, op.structs)
		if err != nil {
			return false, err
		}
		for i, n := range op.structs {
			if vs[i].String() != want[n] {
				return false, nil
			}
		}
		return true, nil
	}
	v, _, err := cl.Count(ctx, text, op.structs[0])
	if err != nil {
		return false, err
	}
	return v.String() == want[op.structs[0]], nil
}

// primePanels counts every query on every structure once.
func primePanels(ctx context.Context, cl *serve.Client, texts, names []string) error {
	for _, t := range texts {
		if _, _, err := cl.CountBatch(ctx, t, names); err != nil {
			return err
		}
	}
	return nil
}

func runDashboard(cfg config) (*result, error) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(cfg.seed))
	ts := genTenants(rng, "t", dashTenants, dashPersons, dashItems, dashGroups)
	if err := ts.expect(panels); err != nil {
		return nil, err
	}
	texts := make([]string, len(panels))
	for i, p := range panels {
		texts[i] = p.Text()
	}
	// Enough requests per client for any run length; a run that used
	// them all would cycle through them again.
	clientOps := make([][]panelOp, dashClients)
	for c := range clientOps {
		clientOps[c] = panelOps(rng, 50000, ts.names, len(panels), dashBatch)
	}

	var srv *serve.Server
	var cl *serve.Client
	setup, setupTimes, teardown, err := repeatSetup(func() (func(), error) {
		s, c, err := startNode(serve.Config{})
		if err != nil {
			return nil, err
		}
		for i, n := range ts.names {
			if _, err := c.CreateStructure(ctx, n, ts.facts[i], nil); err != nil {
				shutdown(s)
				return nil, err
			}
		}
		if err := primePanels(ctx, c, texts, ts.names); err != nil {
			shutdown(s)
			return nil, err
		}
		srv, cl = s, c
		return func() { shutdown(s) }, nil
	})
	if err != nil {
		return nil, err
	}
	defer teardown()

	evict0 := engine.SessionStats().Evictions
	wrong := make([]int, dashClients)
	l := closedLoop(loopSpec{clients: dashClients, round: 1, dur: cfg.dur}, func(c, i int) error {
		op := clientOps[c][i%len(clientOps[c])]
		ok, err := sendPanel(ctx, cl, texts[op.panel], op, ts.want[texts[op.panel]])
		if err != nil {
			return err
		}
		if !ok {
			wrong[c]++
		}
		return nil
	})
	evicted := engine.SessionStats().Evictions - evict0

	res := &result{correct: true, attempted: l.attempted, failed: l.failed}
	res.line("dashboard: %d tenants, %d tuples, %d panels; %d requests (%d failed), setup runs %v", dashTenants, ts.tuples(), len(panels), l.attempted, l.failed, setupTimes)
	for c, w := range wrong {
		res.check(w == 0, "dashboard client %d: %d responses with a wrong count", c, w)
	}
	res.line("dashboard: whole-run rate %.1f/s, windowed median %.1f/s; sessions evicted during the timed part: %d", l.rate(), l.windowRate(rateWindow), evicted)
	res.setE2E(setup, l, l.windowRate(rateWindow))

	if cfg.trace {
		tr := newTracer()
		vals, err := traceDashboard(ctx, tr, res, srv, ts, texts, clientOps[0])
		if err != nil {
			return nil, err
		}
		vals["engine.sessions_evicted"] = float64(evicted)
		vals["trace.untraced_op_ms"] = ms(meanDur(l.lat))
		vals["serve.loopback_us"] = us(quantile(l.lat, 0.5) - medianDur(tr.spanTimes("serve.handler")))
		res.attempted += dashTraceOps
		if err := finishTrace(tr, res, cfg, "dashboard", vals); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// traceDashboard serves the same request mix through the server's
// handler without a socket, then probes the memo-warm layers under it:
// core's CountBatchInto and one engine memo hit.
func traceDashboard(ctx context.Context, tr *tracer, res *result, srv *serve.Server, ts *tenantSet, texts []string, ops []panelOp) (map[string]float64, error) {
	vals := map[string]float64{}
	h := srv.Handler()
	wrong := 0
	for i := 0; i < dashTraceOps; i++ {
		op := ops[i%len(ops)]
		var body []byte
		var path string
		var err error
		if op.batch {
			path = "/countBatch"
			body, err = json.Marshal(serve.CountBatchRequest{Query: texts[op.panel], Structures: op.structs})
		} else {
			path = "/count"
			body, err = json.Marshal(serve.CountRequest{Query: texts[op.panel], Structure: op.structs[0]})
		}
		if err != nil {
			return nil, err
		}
		rec := httptest.NewRecorder()
		id := tr.begin("op")
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		tr.do("serve.handler", func() { h.ServeHTTP(rec, req) })
		tr.end(id)
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("traced %s: HTTP %d: %s", path, rec.Code, rec.Body.String())
		}
		want := ts.want[texts[op.panel]]
		if op.batch {
			var r serve.CountBatchResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &r); err != nil {
				return nil, err
			}
			for j, n := range op.structs {
				if r.Counts[j] != want[n] {
					wrong++
				}
			}
		} else {
			var r serve.CountResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &r); err != nil {
				return nil, err
			}
			if r.Count != want[op.structs[0]] {
				wrong++
			}
		}
	}
	res.check(wrong == 0, "dashboard traced: %d wrong counts", wrong)
	self, _, n := tr.layerTimes("op")
	vals["serve.handler_us"] = us(self["serve.handler"]) / float64(n)

	// Probes on the benchmark's own parsed copies of the tenants.
	bs, perFact, err := tr.probeParse(ts.facts, ts.tuples())
	if err != nil {
		return nil, err
	}
	vals["parser.facts_us_per_fact"] = perFact

	q, err := parser.ParseQuery(texts[6]) // a union: several terms per count
	if err != nil {
		return nil, err
	}
	c, err := core.NewCounter(q, bs[0].Signature(), count.EngineFPT)
	if err != nil {
		return nil, err
	}
	batch := bs[:dashBatch]
	out := make([]*big.Int, len(batch))
	for i := range out {
		out[i] = new(big.Int)
	}
	if err := c.CountBatchInto(ctx, batch, out); err != nil { // prime
		return nil, err
	}
	const calls = 2000
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < calls; i++ {
		if err := c.CountBatchInto(ctx, batch, out); err != nil {
			return nil, err
		}
	}
	runtime.ReadMemStats(&m1)
	vals["core.batch_into_allocs"] = float64(m1.Mallocs-m0.Mallocs) / calls
	tr.do("probe", func() {
		for i := 0; i < calls; i++ {
			tr.do("core.batch_into", func() { err = c.CountBatchInto(ctx, batch, out) })
		}
	})
	if err != nil {
		return nil, err
	}
	vals["core.batch_into_us"] = us(medianDur(tr.spanTimes("core.batch_into")))

	comp, err := eptrans.Compile(q, bs[0].Signature())
	if err != nil {
		return nil, err
	}
	t := comp.Minus[0]
	pl, _, err := engine.CompileKeyed(t.Formula, t.FP, engine.FPT)
	if err != nil {
		return nil, err
	}
	sess := engine.SessionFor(bs[0])
	if _, _, err := engine.CountKeyedCtx(ctx, pl, t.FP, sess, 0); err != nil {
		return nil, err
	}
	tr.do("probe", func() {
		for i := 0; i < calls; i++ {
			tr.do("engine.memo_hit", func() { _, _, err = engine.CountKeyedCtx(ctx, pl, t.FP, sess, 0) })
		}
	})
	if err != nil {
		return nil, err
	}
	vals["engine.memo_hit_us"] = us(medianDur(tr.spanTimes("engine.memo_hit")))
	return vals, nil
}
