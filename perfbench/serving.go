package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net"
	"sync"
	"time"

	"lcigraph/internal/cluster"
	"lcigraph/internal/comm"
	"lcigraph/internal/graph"
	"lcigraph/internal/partition"
	"lcigraph/internal/serve"
	"lcigraph/internal/telemetry"
)

// The serve-udp workload keeps a 2-rank serving job resident over loopback
// UDP and drives it open loop from 2 TCP connections with a seeded k-hop /
// distance / PPR mix: a fixed-rate phase at about 30% of the capacity of a
// 2-vCPU machine, then an overload phase at about 3x capacity. Every query is
// timed from when it was due, not when it was written, and every OK answer
// is checked byte for byte against serve.Oracle.
const (
	serveHosts   = 2
	serveScale   = 12
	serveConns   = 2
	fixedQPS     = 150
	overloadQPS  = 1500
	warmupSecs   = 1.5
	phaseGrace   = 5 * time.Second
	fixedShare   = 0.6 // of the measured time; the rest is overload
	traceWindowS = 1.0 // traced runs toggle tracing every window of the fixed phase
)

// serveEnv is one serving job and the graph it serves.
type serveEnv struct {
	g      *graph.Graph
	oracle *serve.Oracle
	addr   string
	srv    *serve.Server // rank 0
	regs   []*telemetry.Registry
	counts *verbCounts
	done   chan struct{}
	close  func()
}

func setupServe(seed int64, scale int, tr *Tracer) (*serveEnv, error) {
	e := &serveEnv{done: make(chan struct{}), counts: &verbCounts{}}
	e.g = graph.Web(scale, 43, seed, 64)
	pt := partition.Build(e.g, serveHosts, partition.EdgeCut)
	var cfg serve.Config
	e.oracle = serve.NewOracle(e.g, cfg)
	feps, closeNet, err := newTransport("udp", serveHosts, tr, e.counts)
	if err != nil {
		return nil, err
	}
	e.regs = hostRegistries(feps)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		closeNet()
		return nil, err
	}
	e.addr = ln.Addr().String()
	started := make(chan *serve.Server, 1)
	mk := func(r int) comm.Layer {
		opt := lciOptions()
		opt.Telemetry = e.regs[r]
		var l comm.Layer = comm.NewLCILayer(feps[r], opt)
		if tr != nil {
			l = wrapLayer(l, tr, r)
		}
		return l
	}
	go func() {
		defer close(e.done)
		cluster.Run(serveHosts, 1, mk, func(h *cluster.Host) {
			c := cfg
			c.Reg = e.regs[h.Rank]
			srv := serve.New(h, pt, c)
			if h.Rank != 0 {
				srv.Run()
				return
			}
			fe := serve.ServeClients(ln, srv)
			started <- srv
			srv.Run()
			fe.Close()
		})
	}()
	e.srv = <-started
	e.close = func() {
		e.srv.InitiateDrain()
		<-e.done
		closeNet()
	}
	return e, nil
}

// queryMix draws the seeded query stream: mostly k-hop neighbourhoods, some
// distances and personalized PageRank, a third of the vertices from a small
// hot set so the result cache sees repeats.
func queryMix(rng *rand.Rand, n uint32) serve.Query {
	v := func() uint32 {
		if rng.Intn(3) == 0 {
			return uint32(rng.Intn(16)) % n
		}
		return uint32(rng.Int63n(int64(n)))
	}
	switch r := rng.Intn(10); {
	case r < 6:
		return serve.Query{Op: serve.OpKHop, A: v(), B: uint32(1 + rng.Intn(3))}
	case r < 9:
		return serve.Query{Op: serve.OpDist, A: v(), B: v()}
	default:
		return serve.Query{Op: serve.OpPPR, A: v(), B: 8}
	}
}

// sent is one query of a phase and what became of it.
type sent struct {
	q       serve.Query
	due     time.Time // when the schedule said to send it
	at      time.Time // when it was written
	done    time.Time // when its response arrived (zero: lost)
	status  uint8
	payload []byte
	traced  bool
}

// phase drives one open-loop phase over conns and returns every query.
// Query i of connection c is due at start + (i*conns + c)/qps.
func runPhase(conns []net.Conn, rng *rand.Rand, n uint32, qps float64, d time.Duration,
	tr *Tracer, toggle bool) ([]*sent, error) {
	total := int(qps * d.Seconds())
	qs := make([]*sent, total)
	for i := range qs {
		qs[i] = &sent{q: queryMix(rng, n)}
	}
	start := time.Now().Add(5 * time.Millisecond)
	interval := time.Duration(float64(time.Second) / qps)
	for i, s := range qs {
		s.due = start.Add(time.Duration(i) * interval)
	}
	var mu sync.Mutex
	answered := 0
	var readers, writers sync.WaitGroup
	errs := make([]error, len(conns))
	for c, conn := range conns {
		readers.Add(1)
		go func(c int, conn net.Conn) {
			defer readers.Done()
			br := bufio.NewReader(conn)
			for {
				id, status, payload, err := serve.ReadResponse(br)
				if err != nil {
					return // the phase ends by deadline
				}
				now := time.Now()
				if int(id) >= len(qs) || int(id)%len(conns) != c {
					errs[c] = fmt.Errorf("response to unknown request %d", id)
					return
				}
				s := qs[id]
				mu.Lock()
				if s.done.IsZero() {
					s.done, s.status, s.payload = now, status, payload
					answered++
				}
				traced := s.traced
				mu.Unlock()
				if traced {
					tr.Record(serveHosts, spanQuery, uint64(id)+1, s.due, now)
				}
			}
		}(c, conn)
		writers.Add(1)
		go func(c int, conn net.Conn) {
			defer writers.Done()
			bw := bufio.NewWriter(conn)
			for i := c; i < len(qs); i += len(conns) {
				s := qs[i]
				if w := time.Until(s.due); w > 0 {
					time.Sleep(w)
				}
				if toggle {
					on := int(time.Since(start).Seconds()/traceWindowS)%2 == 1
					tr.SetOn(on)
				}
				mu.Lock()
				s.traced = tr.On()
				s.at = time.Now()
				mu.Unlock()
				// A failed write leaves this and the remaining queries
				// unanswered: they count as lost.
				if serve.WriteRequest(bw, uint32(i), s.q) != nil || bw.Flush() != nil {
					return
				}
			}
		}(c, conn)
	}
	writers.Wait()
	deadline := time.Now().Add(phaseGrace)
	for time.Now().Before(deadline) {
		mu.Lock()
		all := answered == len(qs)
		mu.Unlock()
		if all {
			break
		}
		time.Sleep(time.Millisecond)
	}
	// Unblock the readers; the connections are not reused.
	for _, conn := range conns {
		conn.SetReadDeadline(time.Now())
	}
	readers.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return qs, nil
}

func dial(addr string, n int) ([]net.Conn, error) {
	conns := make([]net.Conn, n)
	for i := range conns {
		c, err := net.DialTimeout("tcp", addr, 10*time.Second)
		if err != nil {
			for _, o := range conns[:i] {
				o.Close()
			}
			return nil, err
		}
		conns[i] = c
	}
	return conns, nil
}

// verifier checks OK answers against the oracle, computing each distinct
// query's answer once.
type verifier struct {
	o     *serve.Oracle
	want  map[serve.Query][]byte
	first error
}

// check returns how many OK answers in qs disagree with the oracle.
func (v *verifier) check(qs []*sent) (wrong int) {
	for _, s := range qs {
		if s.status != serve.StatusOK || s.done.IsZero() {
			continue
		}
		w, ok := v.want[s.q]
		if !ok {
			var err error
			if w, err = v.o.Answer(s.q); err != nil {
				w = nil
			}
			v.want[s.q] = w
		}
		if w == nil || !bytes.Equal(w, s.payload) {
			wrong++
			if v.first == nil {
				v.first = fmt.Errorf("query %s(%d,%d): answer differs from the oracle",
					serve.OpName(s.q.Op), s.q.A, s.q.B)
			}
		}
	}
	return wrong
}

// latencies returns each query's latency from when it was due, +Inf for a
// query that was not answered OK.
func latencies(qs []*sent, keep func(*sent) bool) []float64 {
	var xs []float64
	for _, s := range qs {
		if !keep(s) {
			continue
		}
		if s.status == serve.StatusOK && !s.done.IsZero() {
			xs = append(xs, ms(s.done.Sub(s.due)))
		} else {
			xs = append(xs, math.Inf(1))
		}
	}
	return xs
}

func okCount(qs []*sent) (ok, shed int) {
	for _, s := range qs {
		if s.done.IsZero() {
			continue
		}
		switch s.status {
		case serve.StatusOK:
			ok++
		case serve.StatusShed:
			shed++
		}
	}
	return ok, shed
}

func runServe(rc runConfig) (*result, error) {
	scale := serveScale
	if rc.small {
		scale = 8
	}
	var tr *Tracer
	if rc.trace {
		tr = NewTracer(serveHosts + 1) // the last lane is the client's
	}
	res := newResult()
	env, setups, err := repeatSetup(func() (*serveEnv, error) { return setupServe(rc.seed, scale, tr) },
		func(e *serveEnv) { e.close() })
	if err != nil {
		return nil, err
	}
	defer env.close()
	res.setE2E("setup_s", median(setups), len(setups))

	rng := rand.New(rand.NewSource(rc.seed))
	n := uint32(env.g.N)
	newConns := func() ([]net.Conn, error) { return dial(env.addr, serveConns) }
	runOne := func(qps float64, d time.Duration, toggle bool) ([]*sent, error) {
		conns, err := newConns()
		if err != nil {
			return nil, err
		}
		defer func() {
			for _, c := range conns {
				c.Close()
			}
		}()
		return runPhase(conns, rng, n, qps, d, tr, toggle)
	}
	secs := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

	warm, err := runOne(fixedQPS, secs(warmupSecs), false)
	if err != nil {
		return nil, err
	}
	before := mergeSnapshots(env.regs)
	fixed, err := runOne(fixedQPS, secs(rc.seconds*fixedShare), rc.trace)
	if err != nil {
		return nil, err
	}
	tr.SetOn(false)
	overStart := time.Now()
	over, err := runOne(overloadQPS, secs(rc.seconds*(1-fixedShare)), false)
	if err != nil {
		return nil, err
	}
	var lastDone time.Time
	for _, s := range over {
		if s.done.After(lastDone) {
			lastDone = s.done
		}
	}
	after := mergeSnapshots(env.regs)

	v := &verifier{o: env.oracle, want: map[serve.Query][]byte{}}
	wrongFixed, wrongOver := v.check(fixed), v.check(over)
	res.wrong = int64(v.check(warm) + wrongFixed + wrongOver)
	if v.first != nil {
		res.notef("FAILED %v", v.first)
	}
	fixedOK, fixedShed := okCount(fixed)
	overOK, overShed := okCount(over)
	// A fixed-phase query fails unless answered OK; an overload query fails
	// if it was never answered (a shed answer is admission control working).
	// Wrong answers fail in both.
	fixedFailed := len(fixed) - fixedOK + wrongFixed
	overFailed := len(over) - overOK - overShed + wrongOver
	res.attempted = int64(len(fixed) + len(over))
	res.failed = int64(fixedFailed + overFailed)
	res.notef("fixed %d qps: %d sent, %d ok, %d shed, failed %d (%.2f%%)", fixedQPS, len(fixed), fixedOK,
		fixedShed, fixedFailed, 100*float64(fixedFailed)/float64(len(fixed)))
	res.notef("overload %d qps: %d sent, %d ok, %d shed, failed %d (%.2f%%)", overloadQPS, len(over), overOK,
		overShed, overFailed, 100*float64(overFailed)/float64(len(over)))

	untraced := func(s *sent) bool { return !s.traced }
	lat := latencies(fixed, untraced)
	goodput := ratio(float64(overOK-wrongOver), lastDone.Sub(overStart).Seconds())
	res.setE2E("op_ms", quantile(lat, 0.5), len(lat))
	res.setE2E("peak_rss_mib", peakRSSMiB(), 1)
	res.notef("fixed phase: p50 %.2f ms  p90 %.2f ms  p99 %.2f ms from due time, n=%d; overload goodput %.0f qps",
		quantile(lat, 0.5), quantile(lat, 0.9), quantile(lat, 0.99), len(lat), goodput)
	if !rc.trace {
		return res, nil
	}

	res.layer["query_p50_ms"] = quantile(lat, 0.5)
	res.layer["query_p99_ms"] = quantile(lat, 0.99)
	res.layer["goodput_qps"] = goodput
	tlat := latencies(fixed, func(s *sent) bool { return s.traced })
	res.layer["tracing.overhead_pct"] = 100 * (ratio(quantile(tlat, 0.5), quantile(lat, 0.5)) - 1)
	res.notef("tracing overhead %.1f%% (traced/untraced fixed-phase p50, %d/%d queries)",
		res.layer["tracing.overhead_pct"], len(tlat), len(lat))
	for _, op := range []uint8{serve.OpKHop, serve.OpDist, serve.OpPPR} {
		xs := latencies(fixed, func(s *sent) bool { return !s.traced && s.q.Op == op && s.status == serve.StatusOK })
		res.layer["serve.latency_ms."+serve.OpName(op)] = quantile(xs, 0.5)
	}
	d := func(name string) float64 { return float64(after.Counter(name) - before.Counter(name)) }
	hits, misses := d("lci_serve_cache_hits_total"), d("lci_serve_cache_misses_total")
	res.layer["serve.cache_hit_ratio"] = ratio(hits, hits+misses)
	res.layer["serve.subqueries_per_query"] = ratio(d("lci_serve_subqueries_total"), misses)
	res.layer["serve.shed_ratio.fixed"] = ratio(float64(fixedShed), float64(len(fixed)))
	res.layer["serve.shed_ratio.overload"] = ratio(float64(overShed), float64(len(over)))
	var lags []float64
	for _, s := range fixed {
		lags = append(lags, ms(s.at.Sub(s.due)))
	}
	res.layer["serve.generator_lag_ms"] = quantile(lags, 0.99)
	res.layer["netfabric.send_ns"] = tr.MedianNs(spanSend)
	res.layer["netfabric.poll_hit_ratio"] = env.counts.pollHitRatio()
	netMetrics(res, before, after, float64(fixedOK+overOK))
	if rc.spans != "" {
		if err := tr.WriteSpans(rc.spans); err != nil {
			return nil, err
		}
	}
	return res, nil
}
