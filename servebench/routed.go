package main

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/serve"
	"repro/servebench/ref"
)

// routed: two clients send dashboard-style panels through a 2-shard
// router with 2 replicas, plus counts on one partitioned structure.
// The shards are memo-warm, so what differs from dashboard is the
// cluster layer: routing, scatter-gather and the inclusion–exclusion
// recombination of partitioned counts.
const (
	routedShards      = 2
	routedReplicas    = 2
	routedTenants     = 12
	routedBatch       = 4
	routedParts       = 2
	routedCommunities = 8
	routedCommPersons = 40
	routedTraceOps    = 1500
	// routedBasePort is the first of the shards' fixed loopback ports.
	// The ring hashes shard URLs, so OS-chosen ports would place the
	// structures' replicas — and with them how many sub-requests a
	// scatter-gather needs — differently in every run.  The ports lie
	// below Linux's ephemeral range; if one is taken, set-up fails
	// rather than measure a different placement.
	routedBasePort = 29811
	partName       = "communities"
)

// partPanels are the panels counted on the partitioned structure
// (indices into panels).
var partPanels = []int{0, 2, 3, 8}

// routedOp is one routed request: a tenant panel op, or a /count on
// the partitioned structure.
type routedOp struct {
	panelOp
	part bool
}

func genRoutedOps(rng *rand.Rand, n int, names []string) []routedOp {
	base := panelOps(rng, n, names, len(panels), routedBatch)
	ops := make([]routedOp, n)
	for i := range ops {
		ops[i] = routedOp{panelOp: base[i]}
		if rng.Intn(5) == 0 {
			ops[i] = routedOp{panelOp: panelOp{panel: partPanels[rng.Intn(len(partPanels))], structs: []string{partName}}, part: true}
		}
	}
	return ops
}

// genCommunities builds the partitioned structure: disjoint social
// communities, so the domain splits along Gaifman components.
func genCommunities(rng *rand.Rand) *ref.Facts {
	f := ref.NewFacts(socialArity)
	for c := 0; c < routedCommunities; c++ {
		genSocial(rng, f, fmt.Sprintf("c%d", c), routedCommPersons, routedCommPersons, 4)
	}
	return f
}

type routedCluster struct {
	shards []*serve.Server
	co     *cluster.Coordinator
	cl     *serve.Client
	direct map[string]*serve.Client // shard URL → client
}

func (rc *routedCluster) stop() {
	if rc.co != nil {
		shutdown(rc.co)
	}
	for _, s := range rc.shards {
		shutdown(s)
	}
}

func startCluster() (*routedCluster, error) {
	rc := &routedCluster{direct: map[string]*serve.Client{}}
	var urls []string
	for i := 0; i < routedShards; i++ {
		s, c, err := startNode(serve.Config{Addr: fmt.Sprintf("127.0.0.1:%d", routedBasePort+i)})
		if err != nil {
			rc.stop()
			return nil, fmt.Errorf("shard %d needs its fixed port: %w", i, err)
		}
		rc.shards = append(rc.shards, s)
		u := "http://" + s.Addr()
		urls = append(urls, u)
		rc.direct[u] = c
	}
	co, err := cluster.New(cluster.Config{Shards: urls, Replicas: routedReplicas, Addr: "127.0.0.1:0"})
	if err != nil {
		rc.stop()
		return nil, err
	}
	if err := co.Start(); err != nil {
		rc.stop()
		return nil, err
	}
	rc.co = co
	rc.cl = serve.NewClient("http://"+co.Addr(), httpClient)
	return rc, nil
}

func runRouted(cfg config) (*result, error) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(cfg.seed))
	ts := genTenants(rng, "r", routedTenants, dashPersons, dashItems, dashGroups)
	if err := ts.expect(panels); err != nil {
		return nil, err
	}
	comm := genCommunities(rng)
	commFacts := comm.Text()
	ev := ref.New(comm)
	texts := make([]string, len(panels))
	for i, p := range panels {
		texts[i] = p.Text()
	}
	for _, p := range partPanels {
		v, err := ev.Count(panels[p])
		if err != nil {
			return nil, err
		}
		ts.want[texts[p]][partName] = fmt.Sprint(v)
	}
	clientOps := make([][]routedOp, dashClients)
	for c := range clientOps {
		clientOps[c] = genRoutedOps(rng, 50000, ts.names)
	}

	var rc *routedCluster
	setup, setupTimes, teardown, err := repeatSetup(func() (func(), error) {
		c, err := startCluster()
		if err != nil {
			return nil, err
		}
		fail := func(err error) (func(), error) { c.stop(); return nil, err }
		for i, n := range ts.names {
			if _, err := c.cl.CreateStructure(ctx, n, ts.facts[i], nil); err != nil {
				return fail(err)
			}
		}
		if _, err := c.cl.CreateStructureWith(ctx, serve.CreateStructureRequest{Name: partName, Facts: commFacts, Partitions: routedParts}); err != nil {
			return fail(err)
		}
		if err := primePanels(ctx, c.cl, texts, ts.names); err != nil {
			return fail(err)
		}
		for _, p := range partPanels {
			if _, _, err := c.cl.Count(ctx, texts[p], partName); err != nil {
				return fail(err)
			}
		}
		rc = c
		return c.stop, nil
	})
	if err != nil {
		return nil, err
	}
	defer teardown()

	evict0 := engine.SessionStats().Evictions
	wrong := make([]int, dashClients)
	l := closedLoop(loopSpec{clients: dashClients, round: 1, dur: cfg.dur}, func(c, i int) error {
		op := clientOps[c][i%len(clientOps[c])]
		ok, err := sendPanel(ctx, rc.cl, texts[op.panel], op.panelOp, ts.want[texts[op.panel]])
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
	res.line("routed: %d shards, R=%d, %d tenants (%d tuples) + %q in %d parts (%d tuples, %d communities); %d requests (%d failed), setup runs %v",
		routedShards, routedReplicas, routedTenants, ts.tuples(), partName, routedParts, comm.NumTuples(), routedCommunities, l.attempted, l.failed, setupTimes)
	for c, w := range wrong {
		res.check(w == 0, "routed client %d: %d responses with a wrong count", c, w)
	}
	st, err := rc.cl.Stats(ctx)
	if err != nil {
		return nil, err
	}
	res.line("routed: whole-run rate %.1f/s, windowed median %.1f/s; %d scatter-gathers, %d failovers, %d sessions evicted",
		l.rate(), l.windowRate(rateWindow), st.Cluster.ScatterGathers, st.Cluster.Failovers, evicted)
	res.setE2E(setup, l, l.windowRate(rateWindow))

	if cfg.trace {
		tr := newTracer()
		vals, err := traceRouted(ctx, tr, res, rc, ts, texts, clientOps[0])
		if err != nil {
			return nil, err
		}
		st2, err := rc.cl.Stats(ctx)
		if err != nil {
			return nil, err
		}
		vals["cluster.failovers"] = float64(st2.Cluster.Failovers)
		vals["engine.sessions_evicted"] = float64(evicted)
		vals["trace.untraced_op_ms"] = ms(meanDur(l.lat))
		res.attempted += routedTraceOps
		if err := finishTrace(tr, res, cfg, "routed", vals); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// traceRouted sends the same request mix through the coordinator, each
// op's span named after its cluster path, then probes the routing cost:
// tenant /counts sent straight to an owning shard, against the same
// requests through the router.
func traceRouted(ctx context.Context, tr *tracer, res *result, rc *routedCluster, ts *tenantSet, texts []string, ops []routedOp) (map[string]float64, error) {
	vals := map[string]float64{}
	_, perFact, err := tr.probeParse(ts.facts, ts.tuples())
	if err != nil {
		return nil, err
	}
	vals["parser.facts_us_per_fact"] = perFact

	wrong := 0
	for i := 0; i < routedTraceOps; i++ {
		op := ops[i%len(ops)]
		name := "cluster.route"
		switch {
		case op.part:
			name = "cluster.recombine"
		case op.batch:
			name = "cluster.scatter"
		}
		var ok bool
		id := tr.begin("op")
		tr.do(name, func() { ok, err = sendPanel(ctx, rc.cl, texts[op.panel], op.panelOp, ts.want[texts[op.panel]]) })
		tr.end(id)
		if err != nil {
			return nil, err
		}
		if !ok {
			wrong++
		}
	}
	res.check(wrong == 0, "routed traced: %d wrong responses", wrong)
	vals["cluster.scatter_ms"] = ms(meanDur(tr.spanTimes("cluster.scatter")))
	vals["cluster.recombine_ms"] = ms(meanDur(tr.spanTimes("cluster.recombine")))

	// Routing cost: the same single-structure /count, direct to an
	// owning shard (warmed once first) and through the coordinator.
	owner := func(name string) *serve.Client { return rc.direct[rc.co.Ring().Owners(name, 1)[0]] }
	var singles []routedOp
	for _, op := range ops[:routedTraceOps] {
		if !op.part && !op.batch {
			singles = append(singles, op)
		}
	}
	for _, op := range singles {
		if _, err := sendPanel(ctx, owner(op.structs[0]), texts[op.panel], op.panelOp, ts.want[texts[op.panel]]); err != nil {
			return nil, err
		}
	}
	tr.do("probe", func() {
		for _, op := range singles {
			var ok bool
			tr.do("serve.direct", func() {
				ok, err = sendPanel(ctx, owner(op.structs[0]), texts[op.panel], op.panelOp, ts.want[texts[op.panel]])
			})
			if err != nil {
				return
			}
			if !ok {
				wrong++
			}
		}
	})
	if err != nil {
		return nil, err
	}
	res.check(wrong == 0, "routed direct probe: %d wrong responses", wrong)
	vals["cluster.route_us"] = us(medianDur(tr.spanTimes("cluster.route")) - medianDur(tr.spanTimes("serve.direct")))
	return vals, nil
}
