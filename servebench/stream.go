package main

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/count"
	"repro/internal/engine"
	"repro/internal/parser"
	"repro/internal/serve"
	"repro/internal/structure"
	"repro/internal/wal"
	"repro/servebench/ref"
)

// stream: one client appends a batch of Follows facts to one of several
// WAL-backed feed structures, then reads every subscription on that
// feed, and moves on to the next feed.  Every round of the timed part
// runs on a fresh node whose feeds start from their base graphs, so a
// cycle's cost does not depend on how many cycles ran before it (the
// graphs would otherwise grow with the throughput).  The WAL syncs with
// the "batch" policy (an fsync every 32 appends, plus one on every
// create and on shutdown), fixed so that runs compare.
const (
	streamFeeds    = 16
	streamPersons  = 300
	streamBatchLen = 10
	// streamCloseEvery: one batch in every block of this many on a feed
	// closes a directed triangle, at a seeded position, and the others
	// close none.  The rate is the one seen in a trial of random
	// 20-fact batches on a 2000-person social graph (6 of 30 batches
	// created a triangle); it keeps the triangle subscription's slow
	// delta advances (README, "Known fault") at a fixed share of the
	// cycles.
	streamCloseEvery = 5
	// streamRound is the loop's round: every feed gets one block of
	// batches, so every run has the same share of closing batches, and
	// the round's node is then replaced by a fresh one.
	streamRound    = streamFeeds * streamCloseEvery
	streamFsync    = "batch"
	streamTraceOps = 4 * streamCloseEvery
	// streamWALProbe is the number of appends the WAL probe logs: two
	// fsync intervals of the batch policy.
	streamWALProbe = 64
)

// streamSubs are the maintained counts: two quantifier-free ones the
// engine advances by delta joins, and one ∃-query it recounts.
var streamSubs = []string{
	"mutual(x,y) := Follows(x,y) & Follows(y,x)",
	"triangle(x,y,z) := Follows(x,y) & Follows(y,z) & Follows(z,x)",
	"influence(x,y) := exists z . Follows(x,z) & Follows(z,y)",
}

// streamInput is one feed's generated input: the base graph and its
// append batches, drawn on demand from the feed's own generator so
// that a run never runs out of them.  reset starts a new series of
// batches over the base graph, keeping the last one's edges.
type streamInput struct {
	name    string
	facts   string
	ref     *ref.Facts
	persons []int32
	base    [][2]int32
	n       int
	// baseTriangles is the base graph's directed triangle count.
	baseTriangles uint64

	rng     *rand.Rand
	g       *ref.Digraph
	out     [][]int32
	slot    int
	batches []string
	edges   [][][2]int32 // per batch
	closing []bool       // per batch: closes a directed triangle
	past    [][][][2]int32
}

func genStream(rng *rand.Rand, name string) *streamInput {
	f := ref.NewFacts(socialArity)
	s := genSocial(rng, f, "", streamPersons, streamPersons, streamPersons/20)
	in := &streamInput{name: name, facts: f.Text(), ref: f, persons: s.persons, n: streamPersons,
		rng: rand.New(rand.NewSource(rng.Int63()))}
	for _, t := range f.Rels["Follows"] {
		in.base = append(in.base, [2]int32{t[0], t[1]})
	}
	in.reset()
	in.baseTriangles = in.g.Triangles()
	return in
}

func (in *streamInput) reset() {
	if len(in.edges) > 0 {
		in.past = append(in.past, in.edges)
	}
	in.batches, in.edges, in.closing = nil, nil, nil
	in.g, in.out = ref.NewDigraph(in.n), make([][]int32, in.n)
	for _, e := range in.base {
		if in.g.Add(e[0], e[1]) {
			in.out[e[0]] = append(in.out[e[0]], e[1])
		}
	}
}

// batch returns the fact text of batch bi, drawing up to it as needed.
func (in *streamInput) batch(bi int) string {
	for len(in.batches) <= bi {
		k := len(in.batches)
		if k%streamCloseEvery == 0 {
			in.slot = in.rng.Intn(streamCloseEvery)
		}
		closing := k%streamCloseEvery == in.slot
		es := streamBatch(in.rng, in.g, in.out, streamBatchLen, closing)
		var sb strings.Builder
		for _, e := range es {
			ref.WriteFact(&sb, in.ref.Universe, "Follows", []int32{in.persons[e[0]], in.persons[e[1]]})
		}
		in.batches = append(in.batches, sb.String())
		in.edges = append(in.edges, es)
		in.closing = append(in.closing, closing)
	}
	return in.batches[bi]
}

// replay returns the reference subscription counts after each of the
// first n of the given batches over the base graph (persons are
// elements 0..n-1 of the universe).
func (in *streamInput) replay(edges [][][2]int32, n int) [][3]uint64 {
	g := ref.NewDigraph(in.n)
	for _, e := range in.base {
		g.Add(e[0], e[1])
	}
	out := make([][3]uint64, n)
	for i := 0; i < n; i++ {
		for _, e := range edges[i] {
			g.Add(e[0], e[1])
		}
		out[i] = [3]uint64{g.Mutual(), g.Triangles(), g.TwoHop()}
	}
	return out
}

// cycle is one acknowledged append and the subscription reads after it.
type cycle struct {
	version uint64
	counts  [3]*big.Int
	vers    [3]uint64
	append  time.Duration
	reads   [3]time.Duration
	closing bool
}

func runStream(cfg config) (*result, error) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(cfg.seed))
	feeds := make([]*streamInput, streamFeeds)
	baseTuples := 0
	for i := range feeds {
		feeds[i] = genStream(rng, fmt.Sprintf("feed%02d", i))
		baseTuples += feeds[i].ref.NumTuples()
	}

	var cl *serve.Client
	var dir string
	var subIDs [][]string
	var dirs []string
	defer func() {
		for _, d := range dirs {
			os.RemoveAll(d)
		}
	}()
	build := func() (func(), error) {
		for _, in := range feeds {
			in.reset()
		}
		d, err := scratchDir("stream")
		if err != nil {
			return nil, err
		}
		dirs = append(dirs, d)
		s, c, err := startNode(serve.Config{DataDir: d, Fsync: streamFsync})
		if err != nil {
			return nil, err
		}
		var ids [][]string
		for _, in := range feeds {
			fids, err := loadStream(ctx, c, in)
			if err != nil {
				shutdown(s)
				return nil, err
			}
			ids = append(ids, fids)
		}
		cl, dir, subIDs = c, d, ids
		return func() { shutdown(s) }, nil
	}
	setup, setupTimes, teardown, err := repeatSetup(build)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			teardown()
		}
	}()

	evict0 := engine.SessionStats().Evictions
	// rounds[r][f] holds round r's cycles on feed f, in batch order.
	rounds := [][][]cycle{make([][]cycle, streamFeeds)}
	newRound := func() error {
		teardown()
		os.RemoveAll(dir)
		td, err := build()
		if err != nil {
			stopped = true
			return err
		}
		teardown = td
		rounds = append(rounds, make([][]cycle, streamFeeds))
		return nil
	}
	l := closedLoop(loopSpec{clients: 1, round: streamRound, dur: cfg.dur, firstRoundHeap: true, newRound: newRound}, func(_, i int) error {
		j := i % streamRound
		fi, bi := j%streamFeeds, j/streamFeeds
		in := feeds[fi]
		text := in.batch(bi)
		var cy cycle
		t := time.Now()
		info, err := cl.AppendFactsBatch(ctx, in.name, text, fmt.Sprintf("b%d", bi))
		if err != nil {
			return err
		}
		cy.append = time.Since(t)
		cy.version, cy.closing = info.Version, in.closing[bi]
		for k, id := range subIDs[fi] {
			t := time.Now()
			v, si, err := cl.SubscriptionCount(ctx, id)
			if err != nil {
				return err
			}
			cy.reads[k] = time.Since(t)
			cy.counts[k], cy.vers[k] = v, si.Version
		}
		cur := rounds[len(rounds)-1]
		cur[fi] = append(cur[fi], cy)
		return nil
	})

	evicted := engine.SessionStats().Evictions - evict0
	if l.err != nil {
		return nil, fmt.Errorf("starting a round's node: %w", l.err)
	}
	res := &result{correct: true, attempted: l.attempted, failed: l.failed}
	res.line("stream: %d feeds of %d persons, %d base tuples, %d-fact batches, fsync=%s; %d cycles in %d rounds of %d (%d failed), setup runs %v",
		streamFeeds, streamPersons, baseTuples, streamBatchLen, streamFsync, l.attempted, len(rounds), streamRound, l.failed, setupTimes)
	if l.failed > 0 {
		// A failed cycle leaves later versions out of step with the
		// replay, which needs a gapless prefix of acknowledged batches.
		res.check(false, "stream: %d cycles failed; versions cannot be replayed", l.failed)
		rounds = nil
	}

	// Counts at every version against the adjacency-set replay, and
	// monotone across versions (ep-queries are monotone under added
	// facts).
	bad, nonMono := 0, 0
	var appends, reads, cycClosing, cycOther []time.Duration
	perSub := make([][]time.Duration, len(streamSubs))
	triClosing, triOther := 0, 0
	for r, round := range rounds {
		for fi, in := range feeds {
			cs := round[fi]
			edges := in.edges
			if r < len(in.past) {
				edges = in.past[r]
			}
			want := in.replay(edges, len(cs))
			for i, cy := range cs {
				for k := range streamSubs {
					if cy.vers[k] != cy.version || cy.counts[k].Cmp(new(big.Int).SetUint64(want[i][k])) != 0 {
						bad++
					}
					if i > 0 && cy.counts[k].Cmp(cs[i-1].counts[k]) < 0 {
						nonMono++
					}
					perSub[k] = append(perSub[k], cy.reads[k])
				}
				if i > 0 && cy.version <= cs[i-1].version {
					nonMono++
				}
				prevTri := in.baseTriangles
				if i > 0 {
					prevTri = want[i-1][1]
				}
				op := cy.append + cy.reads[0] + cy.reads[1] + cy.reads[2]
				if cy.closing {
					cycClosing = append(cycClosing, op)
					if want[i][1] > prevTri {
						triClosing++
					}
				} else {
					cycOther = append(cycOther, op)
					if want[i][1] > prevTri {
						triOther++
					}
				}
				appends = append(appends, cy.append)
				reads = append(reads, cy.reads[:]...)
			}
		}
	}
	res.check(bad == 0, "stream: %d subscription reads disagree with the reference replay", bad)
	res.check(nonMono == 0, "stream: %d counts or versions decreased across versions", nonMono)
	res.check(triClosing == len(cycClosing) && triOther == 0, "stream: %d of %d closing batches added a triangle, %d other batches did",
		triClosing, len(cycClosing), triOther)
	res.line("stream: %d cycles whose batch closes a triangle, p50 %.3f ms; %d others, p50 %.3f ms",
		len(cycClosing), ms(quantile(cycClosing, 0.5)), len(cycOther), ms(quantile(cycOther, 0.5)))

	res.line("append_p50_ms %.3f ms (%d appends); read_p50_ms %.3f ms (%d reads)", ms(quantile(appends, 0.5)), len(appends), ms(quantile(reads, 0.5)), len(reads))
	for k, s := range streamSubs {
		res.line("  %-60s read p50 %.3f ms, max %.3f ms", s, ms(quantile(perSub[k], 0.5)), ms(quantile(perSub[k], 1)))
	}
	if tl, pct, ok := tail(l.lat); ok {
		res.line("op_tail_ms (p%.1f of %d ops) %.3f ms", pct, l.ops(), ms(tl))
	}
	res.setE2E(setup, l, l.rate())

	// Durability: restart on the same data directory; every feed's
	// recovered version and its re-registered subscriptions' counts must
	// equal the last acknowledged state.
	teardown()
	stopped = true
	s2, c2, err := startNode(serve.Config{DataDir: dir, Fsync: streamFsync})
	if err != nil {
		return nil, fmt.Errorf("restart: %w", err)
	}
	defer shutdown(s2)
	var last [][]cycle
	if len(rounds) > 0 {
		last = rounds[len(rounds)-1]
	}
	for fi, in := range feeds {
		if last == nil || len(last[fi]) == 0 {
			continue
		}
		cs := last[fi]
		last := cs[len(cs)-1]
		info, err := c2.Structure(ctx, in.name)
		if err != nil {
			return nil, err
		}
		res.check(info.Version == last.version, "stream restart: %s recovered version %d, acknowledged %d", in.name, info.Version, last.version)
		for k, q := range streamSubs {
			si, err := c2.Subscribe(ctx, q, in.name)
			if err != nil {
				return nil, err
			}
			v, _, err := c2.SubscriptionCount(ctx, si.ID)
			if err != nil {
				return nil, err
			}
			res.check(v.Cmp(last.counts[k]) == 0, "stream restart: %s %s recovered count %v, acknowledged %v", in.name, q, v, last.counts[k])
		}
	}
	res.line("stream: restart on the WAL recovered every feed's version and subscription counts")

	if cfg.trace {
		tr := newTracer()
		vals, err := traceStream(ctx, tr, res, feeds[0])
		if err != nil {
			return nil, err
		}
		vals["engine.sessions_evicted"] = float64(evicted)
		vals["trace.untraced_op_ms"] = ms(meanDur(l.lat))
		res.attempted += streamTraceOps
		if err := finishTrace(tr, res, cfg, "stream", vals); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// loadStream creates the stream structure, registers the subscriptions
// and reads each once (materializing the maintained counts).
func loadStream(ctx context.Context, c *serve.Client, in *streamInput) ([]string, error) {
	if _, err := c.CreateStructure(ctx, in.name, in.facts, nil); err != nil {
		return nil, err
	}
	var ids []string
	for _, q := range streamSubs {
		si, err := c.Subscribe(ctx, q, in.name)
		if err != nil {
			return nil, err
		}
		if _, _, err := c.SubscriptionCount(ctx, si.ID); err != nil {
			return nil, err
		}
		ids = append(ids, si.ID)
	}
	return ids, nil
}

// traceStream replays the first batches through an in-process registry
// with a WAL store — append, then every subscription read, each read
// classified by whether the engine advanced it by delta or recounted —
// and probes the append path's layers on the same batch texts: fact
// parsing, the structure merge, and the WAL record append.
func traceStream(ctx context.Context, tr *tracer, res *result, in *streamInput) (map[string]float64, error) {
	vals := map[string]float64{}
	d, err := scratchDir("stream-trace")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(d)
	policy, err := wal.ParseSyncPolicy(streamFsync)
	if err != nil {
		return nil, err
	}
	st, rep, err := wal.Open(wal.Options{Dir: filepath.Join(d, "registry"), Sync: policy})
	if err != nil {
		return nil, err
	}
	reg := serve.NewRegistry(0, 0)
	if err := reg.AttachStore(st, rep, -1); err != nil {
		st.Close()
		return nil, err
	}
	defer reg.Close()
	if _, err := reg.CreateStructure(in.name, in.facts, nil); err != nil {
		return nil, err
	}
	var ids []string
	for _, q := range streamSubs {
		si, err := reg.Subscribe(q, in.name, "")
		if err != nil {
			return nil, err
		}
		if _, err := reg.SubscriptionCount(ctx, si.ID); err != nil {
			return nil, err
		}
		ids = append(ids, si.ID)
	}
	in.reset()
	in.batch(streamTraceOps - 1)
	want := in.replay(in.edges, streamTraceOps)
	delta0 := engine.DeltaStats()
	bad := 0
	var triClosing, triOther []time.Duration
	for i := 0; i < streamTraceOps; i++ {
		op := tr.begin("op")
		tr.do("serve.append", func() { _, err = reg.AppendFactsBatch(in.name, in.batch(i), fmt.Sprintf("b%d", i)) })
		if err != nil {
			return nil, err
		}
		for k, id := range ids {
			before := engine.DeltaStats()
			var si serve.SubscriptionInfo
			r := tr.begin("serve.subscription_read")
			si, err = reg.SubscriptionCount(ctx, id)
			tr.end(r)
			if err != nil {
				return nil, err
			}
			after := engine.DeltaStats()
			// The read is one call; name its span after what the engine
			// did inside it, so the layer split reads off the trace.
			if after.Advances > before.Advances {
				tr.spans[r].Name = "engine.delta_advance"
			} else {
				tr.spans[r].Name = "engine.recount"
			}
			if si.Count != fmt.Sprint(want[i][k]) {
				bad++
			}
			if d := time.Duration(tr.spans[r].End - tr.spans[r].Start); k == 1 && in.closing[i] {
				triClosing = append(triClosing, d)
			} else if k == 1 {
				triOther = append(triOther, d)
			}
		}
		tr.end(op)
	}
	res.check(bad == 0, "stream traced: %d reads disagree with the reference replay", bad)
	delta1 := engine.DeltaStats()
	vals["engine.delta_advances"] = float64(delta1.Advances-delta0.Advances) / streamTraceOps
	vals["engine.delta_fallbacks"] = float64(delta1.FullRecounts-delta0.FullRecounts) / streamTraceOps
	self, _, n := tr.layerTimes("op")
	vals["serve.append_ms"] = ms(self["serve.append"]) / float64(n)
	vals["engine.delta_advance_ms"] = ms(self["engine.delta_advance"]) / float64(n)
	vals["engine.recount_ms"] = ms(self["engine.recount"]) / float64(n)
	var readSum time.Duration
	reads := 0
	for _, name := range []string{"engine.delta_advance", "engine.recount"} {
		for _, d := range tr.spanTimes(name) {
			readSum += d
			reads++
		}
	}
	vals["serve.subscription_read_ms"] = ms(readSum) / float64(reads)

	// Probes: the append path's layers, one at a time, on copies, over
	// streamWALProbe batches (past the batch policy's fsync interval).
	// After the traced batches, the triangle subscription's advances
	// are set against a full recount of the same version on a fresh
	// session: the stream's known fault reads off these two numbers.
	own, err := parser.ParseStructure(in.facts, nil)
	if err != nil {
		return nil, err
	}
	tri, err := parser.ParseQuery(streamSubs[1])
	if err != nil {
		return nil, err
	}
	c, err := core.NewCounter(tri, own.Signature(), count.EngineFPT)
	if err != nil {
		return nil, err
	}
	st2, _, err := wal.Open(wal.Options{Dir: filepath.Join(d, "probe"), Sync: policy})
	if err != nil {
		return nil, err
	}
	defer st2.Close()
	if err := st2.LogCreate(in.name, nil, in.facts); err != nil {
		return nil, err
	}
	s0 := st2.Stats()
	facts := 0
	var recount time.Duration
	tr.do("probe", func() {
		for i := 0; i < streamWALProbe && err == nil; i++ {
			if i == streamTraceOps {
				t := time.Now()
				if _, err = c.Count(own); err != nil {
					return
				}
				recount = time.Since(t)
			}
			var delta *structure.Structure
			tr.do("parser.facts", func() { delta, err = parser.ParseStructure(in.batch(i), own.Signature()) })
			if err != nil {
				return
			}
			facts += len(in.edges[i])
			pre := own.Version()
			tr.do("structure.append", func() { _, err = structure.Merge(own, delta) })
			if err != nil {
				return
			}
			tr.do("wal.log_append", func() { err = st2.LogAppend(in.name, fmt.Sprintf("b%d", i), pre, in.batch(i)) })
		}
	})
	if err != nil {
		return nil, err
	}
	s1 := st2.Stats()
	res.line("stream: triangle subscription reads p50 %.3f ms after the %d batches that close a triangle, %.3f ms after the %d others; a full recount of the last traced version %.3f ms",
		ms(medianDur(triClosing)), len(triClosing), ms(medianDur(triOther)), len(triOther), ms(recount))
	probe, _, _ := tr.layerTimes("probe")
	vals["parser.facts_us_per_fact"] = us(probe["parser.facts"]) / float64(facts)
	vals["structure.append_us_per_fact"] = us(probe["structure.append"]) / float64(facts)
	vals["wal.log_append_us"] = us(probe["wal.log_append"]) / streamWALProbe
	vals["wal.fsyncs"] = float64(s1.Syncs - s0.Syncs)
	vals["wal.bytes_per_fact"] = float64(s1.WALBytes-s0.WALBytes) / float64(facts)
	return vals, nil
}
