package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// loop is the outcome of one closed-loop timed part: every client sends
// its next operation only after the previous one returned.
type loop struct {
	lat       []time.Duration // per completed operation, all clients
	doneAt    []time.Duration // completion offsets from the start
	elapsed   time.Duration   // start to the last completion
	cpu       time.Duration   // process user+sys time
	allocs    uint64          // bytes allocated
	heapLive  uint64          // live heap after a forced GC (see loopSpec)
	attempted int
	failed    int
	err       error // from loopSpec.newRound
}

// loopSpec shapes a closed loop: clients goroutines run whole rounds of
// round operations each until dur has passed.
type loopSpec struct {
	clients, round int
	dur            time.Duration
	// firstRoundHeap takes the live heap after client 0's first round
	// instead of at the end, for a workload whose retained state grows
	// with the operations completed: a fixed amount of work, whatever
	// the throughput.
	firstRoundHeap bool
	// newRound, when set (one client only), runs before every round but
	// the first; its time, CPU and allocations are left out of the
	// loop's figures.  A failed newRound ends the loop.
	newRound func() error
}

// closedLoop runs op from sp.clients goroutines in whole rounds: a
// client starts a round only while sp.dur has not passed, and finishes
// every round it starts, so every run attempts the same mix of
// operations.  op receives the client number and that client's
// operation sequence number and reports whether the operation failed.
func closedLoop(sp loopSpec, op func(client, i int) error) loop {
	clients, round := sp.clients, sp.round
	var ms0 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(sp.dur)
	var firstHeap uint64
	var hookCPU, hookWall time.Duration
	var hookAllocs uint64
	var hookErr error
	runHook := func() {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		c0 := cpuTime()
		hookErr = sp.newRound()
		hookCPU += cpuTime() - c0
		runtime.ReadMemStats(&m1)
		hookAllocs += m1.TotalAlloc - m0.TotalAlloc
	}
	type rec struct {
		lat, at  []time.Duration
		att, bad int
	}
	recs := make([]rec, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := &recs[c]
			for i := 0; i%round != 0 || time.Now().Before(deadline); i++ {
				if i > 0 && i%round == 0 && sp.newRound != nil {
					t := time.Now()
					runHook()
					hookWall += time.Since(t)
					deadline = deadline.Add(time.Since(t))
					if hookErr != nil {
						return
					}
				}
				t := time.Now()
				err := op(c, i)
				d := time.Since(t)
				r.att++
				if err != nil {
					r.bad++
					continue
				}
				r.lat = append(r.lat, d)
				r.at = append(r.at, t.Add(d).Sub(start))
				if sp.firstRoundHeap && c == 0 && i == round-1 {
					firstHeap = liveHeap()
				}
			}
		}(c)
	}
	wg.Wait()
	var l loop
	l.cpu = cpuTime() - cpu0 - hookCPU
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	l.allocs = ms1.TotalAlloc - ms0.TotalAlloc - hookAllocs
	l.err = hookErr
	for _, r := range recs {
		l.lat = append(l.lat, r.lat...)
		l.doneAt = append(l.doneAt, r.at...)
		l.attempted += r.att
		l.failed += r.bad
	}
	for _, a := range l.doneAt {
		if a > l.elapsed {
			l.elapsed = a
		}
	}
	l.elapsed -= hookWall
	l.heapLive = liveHeap()
	if sp.firstRoundHeap {
		l.heapLive = firstHeap
	}
	return l
}

// liveHeap is the heap in use after a forced GC.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// ops is the number of completed operations.
func (l loop) ops() int { return len(l.lat) }

// rate is completed operations per second over the whole timed part.
func (l loop) rate() float64 { return float64(l.ops()) / l.elapsed.Seconds() }

// windowRate is the median, over consecutive fixed windows of the timed
// part, of the completions per second in each window.  A median over
// windows ignores the few windows a host scheduler stall or a GC cycle
// disturbs, which a whole-run mean would absorb.
func (l loop) windowRate(win time.Duration) float64 {
	nw := int(l.elapsed / win)
	if nw < 1 {
		return l.rate()
	}
	counts := make([]float64, nw)
	for _, a := range l.doneAt {
		if w := int(a / win); w < nw {
			counts[w]++
		}
	}
	return median(counts) / win.Seconds()
}

func (l loop) cpuMsPerOp() float64    { return ms(l.cpu) / float64(l.ops()) }
func (l loop) allocKiBPerOp() float64 { return float64(l.allocs) / 1024 / float64(l.ops()) }
func (l loop) heapMiB() float64       { return float64(l.heapLive) / (1 << 20) }

func ms(d time.Duration) float64 { return d.Seconds() * 1000 }
func us(d time.Duration) float64 { return d.Seconds() * 1e6 }

// quantile returns the q-quantile of ds (nearest rank on a sorted copy).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// tail returns the highest percentile of ds that still has at least ten
// samples beyond it, with that percentile; ok is false below forty
// samples, where such a percentile would be no tail.
func tail(ds []time.Duration) (v time.Duration, pct float64, ok bool) {
	n := len(ds)
	if n < 40 {
		return 0, 0, false
	}
	pct = math.Floor(1000*float64(n-10)/float64(n)) / 10
	return quantile(ds, pct/100), pct, true
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func medianDur(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

// binomTailBound returns the smallest m with P[Binomial(n, p) > m] < alpha:
// the number of approx-mode misses above which an estimator that keeps
// its (ε, δ) promise (miss probability ≤ p = δ) is rejected with false
// alarm probability below alpha.
func binomTailBound(n int, p, alpha float64) int {
	// P[X = k] iteratively; cumulative from the bottom.
	pk := math.Pow(1-p, float64(n))
	cum := pk
	for k := 0; k < n; k++ {
		if 1-cum < alpha {
			return k
		}
		pk *= float64(n-k) / float64(k+1) * p / (1 - p)
		cum += pk
	}
	return n
}

func meanDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s / time.Duration(len(ds))
}
