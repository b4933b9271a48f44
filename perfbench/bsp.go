package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"time"

	"lcigraph/internal/abelian"
	"lcigraph/internal/apps"
	"lcigraph/internal/cluster"
	"lcigraph/internal/comm"
	lci "lcigraph/internal/core"
	"lcigraph/internal/fabric"
	"lcigraph/internal/gemini"
	"lcigraph/internal/graph"
	"lcigraph/internal/memtrack"
	"lcigraph/internal/mpi"
	"lcigraph/internal/netfabric"
	"lcigraph/internal/partition"
	"lcigraph/internal/telemetry"
)

// The BSP workloads run the paper's Abelian PageRank and SSSP (vertex-cut)
// and Gemini PageRank (edge-cut) on a seeded web-like graph, one verified
// solve per operation, on one communication layer per workload: only that
// layer's job is resident while the solves are timed.
const (
	bspHosts   = 2
	bspThreads = 1
	prIters    = 10
	webScale   = 15
)

type bspSpec struct {
	transport string // "sim" (in-process Omni-Path model) or "udp" (loopback sockets)
	layer     string // the communication layer of every solve
	gemini    bool   // also solve Gemini PageRank, on the layer's stream kind
}

func bspWorkload(transport, layer string, gemini bool) func(runConfig) (*result, error) {
	return func(rc runConfig) (*result, error) { return runBSP(rc, bspSpec{transport, layer, gemini}) }
}

// hostFn is one command a resident job's host runs; s is the host's Gemini
// stream (nil for Abelian jobs).
type hostFn func(h *cluster.Host, s comm.Stream)

// bspJob is one resident in-process cluster: its own transport, one
// communication layer (or Gemini stream) per host, and host goroutines
// that run commands until the job is closed.
type bspJob struct {
	gemini  bool
	cmds    []chan hostFn
	done    chan struct{}
	regs    []*telemetry.Registry
	layers  []comm.Layer
	streams []comm.Stream
	closeFn func()
}

func lciOptions() lci.Options {
	return lci.Options{
		PoolPackets:    64 * bspHosts,
		QueueDepth:     1024,
		MaxOutstanding: 1024,
		Workers:        bspThreads + 1,
		Shards:         lci.ShardsFromEnv(),
	}
}

// newTransport builds one provider per host. tr, if non-nil, wraps each
// provider so its verbs are traced.
func newTransport(kind string, hosts int, tr *Tracer, n *verbCounts) ([]fabric.Provider, func(), error) {
	feps := make([]fabric.Provider, hosts)
	closeFn := func() {}
	if kind == "udp" {
		provs, err := netfabric.NewLoopbackGroup(hosts, netfabric.Config{})
		if err != nil {
			return nil, nil, err
		}
		for r, p := range provs {
			feps[r] = p
		}
		closeFn = func() { netfabric.CloseGroup(provs) }
	} else {
		fab := fabric.New(hosts, fabric.OmniPath())
		for r := range feps {
			feps[r] = fab.Endpoint(r)
		}
	}
	if tr != nil {
		for r := range feps {
			feps[r] = wrapProvider(feps[r], tr, r, n)
		}
	}
	return feps, closeFn, nil
}

// mergeSnapshots freezes every host registry and merges the snapshots.
func mergeSnapshots(regs []*telemetry.Registry) *telemetry.Snapshot {
	snaps := make([]*telemetry.Snapshot, len(regs))
	for i, reg := range regs {
		snaps[i] = reg.Snapshot()
	}
	return telemetry.Merge(snaps...)
}

// hostRegistries gives every host its own registry holding its provider's
// counters.
func hostRegistries(feps []fabric.Provider) []*telemetry.Registry {
	regs := make([]*telemetry.Registry, len(feps))
	for r, p := range feps {
		regs[r] = telemetry.New(r)
		if mr, ok := p.(fabric.MetricsRegistrar); ok {
			mr.RegisterMetrics(regs[r])
		}
	}
	return regs
}

func newBSPJob(layer string, gem bool, transport string, tr *Tracer, counts *verbCounts) (*bspJob, error) {
	j := &bspJob{
		gemini:  gem,
		cmds:    make([]chan hostFn, bspHosts),
		done:    make(chan struct{}),
		layers:  make([]comm.Layer, bspHosts),
		streams: make([]comm.Stream, bspHosts),
	}
	feps, closeNet, err := newTransport(transport, bspHosts, tr, counts)
	if err != nil {
		return nil, err
	}
	j.regs = hostRegistries(feps)
	for r := range j.cmds {
		j.cmds[r] = make(chan hostFn)
	}
	var world *mpi.World
	switch {
	case layer == layerProbe && !gem:
		world = mpi.NewWorldOver(feps, mpi.IntelMPI(), mpi.ThreadFunneled)
	case layer != layerLCI:
		world = mpi.NewWorldOver(feps, mpi.IntelMPI(), mpi.ThreadMultiple)
	}
	mk := func(r int) comm.Layer {
		if gem {
			return nopLayer{}
		}
		var l comm.Layer
		switch layer {
		case layerLCI:
			opt := lciOptions()
			opt.Telemetry = j.regs[r]
			l = comm.NewLCILayer(feps[r], opt)
		case layerProbe:
			pl := comm.NewProbeLayer(world.Comm(r))
			pl.SetTelemetry(j.regs[r])
			l = pl
		case layerRMA:
			rl := comm.NewRMALayer(world.Comm(r))
			rl.SetTelemetry(j.regs[r])
			l = rl
		}
		if tr != nil {
			l = wrapLayer(l, tr, r)
		}
		j.layers[r] = l
		return l
	}
	mkStream := func(r int) comm.Stream {
		if layer == layerLCI {
			opt := lciOptions()
			opt.Telemetry = j.regs[r]
			return comm.NewLCIStream(feps[r], opt)
		}
		ms := comm.NewMPIStream(world.Comm(r))
		ms.SetTelemetry(j.regs[r])
		return ms
	}
	var built sync.WaitGroup
	built.Add(bspHosts)
	go func() {
		defer close(j.done)
		cluster.Run(bspHosts, bspThreads, mk, func(h *cluster.Host) {
			var s comm.Stream
			if gem {
				s = mkStream(h.Rank)
				j.streams[h.Rank] = s
			}
			built.Done()
			for fn := range j.cmds[h.Rank] {
				fn(h, s)
			}
			if s != nil {
				h.Barrier()
				s.Stop()
			}
		})
	}()
	built.Wait()
	j.closeFn = closeNet
	return j, nil
}

// exec runs fn on every host and waits for all of them.
func (j *bspJob) exec(fn hostFn) {
	var wg sync.WaitGroup
	wg.Add(len(j.cmds))
	for _, c := range j.cmds {
		c <- func(h *cluster.Host, s comm.Stream) {
			defer wg.Done()
			fn(h, s)
		}
	}
	wg.Wait()
}

func (j *bspJob) close() {
	for _, c := range j.cmds {
		close(c)
	}
	<-j.done
	j.closeFn()
}

// snapshot merges the job's host registries.
func (j *bspJob) snapshot() *telemetry.Snapshot { return mergeSnapshots(j.regs) }

// peakBuf returns the largest communication-buffer high-water mark of any
// host.
func (j *bspJob) peakBuf() int64 {
	var m int64
	for r := range j.layers {
		var t *memtrack.Tracker
		if j.gemini {
			t = j.streams[r].Tracker()
		} else {
			t = j.layers[r].Tracker()
		}
		if v := t.Max(); v > m {
			m = v
		}
	}
	return m
}

// nopLayer stands in for comm.Layer in Gemini jobs, which use streams.
type nopLayer struct{}

func (nopLayer) Name() string { return "none" }
func (nopLayer) Exchange(uint32, [][]byte, []bool, []int, func(int, []byte)) {
	panic("perfbench: exchange on a Gemini job")
}
func (nopLayer) AllocBuf(n int) []byte      { return make([]byte, n) }
func (nopLayer) Tracker() *memtrack.Tracker { return nil }
func (nopLayer) Stop()                      {}

// bspEnv is one set-up: the input graph, its partitions and the resident
// jobs.
type bspEnv struct {
	g        *graph.Graph
	vc, ec   *partition.Partitioned
	source   uint32
	abelian  *bspJob
	gem      *bspJob     // nil unless the workload solves Gemini PageRank
	counts   *verbCounts // calls counted by the traced providers of every job
	genTime  time.Duration
	partTime time.Duration
}

func setupBSP(spec bspSpec, seed int64, scale int, tr *Tracer) (*bspEnv, error) {
	e := &bspEnv{counts: &verbCounts{}}
	t0 := time.Now()
	e.g = graph.Web(scale, 43, seed, 64)
	t1 := time.Now()
	e.vc = partition.Build(e.g, bspHosts, partition.VertexCut)
	if spec.gemini {
		e.ec = partition.Build(e.g, bspHosts, partition.EdgeCutByDst)
	}
	e.genTime, e.partTime = t1.Sub(t0), time.Since(t1)
	e.source = pickSource(e.g)
	var err error
	if e.abelian, err = newBSPJob(spec.layer, false, spec.transport, tr, e.counts); err != nil {
		return nil, fmt.Errorf("%s job: %w", spec.layer, err)
	}
	if spec.gemini {
		if e.gem, err = newBSPJob(spec.layer, true, spec.transport, tr, e.counts); err != nil {
			e.close()
			return nil, fmt.Errorf("gemini %s job: %w", spec.layer, err)
		}
	}
	return e, nil
}

func (e *bspEnv) close() {
	for _, j := range e.jobs() {
		j.close()
	}
}

func (e *bspEnv) jobs() []*bspJob {
	js := []*bspJob{e.abelian}
	if e.gem != nil {
		js = append(js, e.gem)
	}
	return js
}

// pickSource returns the SSSP source: the vertex of largest out-degree
// (the lowest such id), a hub from which the solve reaches most of the
// graph whatever the seed.
func pickSource(g *graph.Graph) uint32 {
	best := 0
	for v := 1; v < g.N; v++ {
		if g.Degree(v) > g.Degree(best) {
			best = v
		}
	}
	return uint32(best)
}

// Applications.
const (
	appPR       = "pr"
	appSSSP     = "sssp"
	appGeminiPR = "gemini_pr"
)

// bspCell is one kind of operation: an application on one layer.
type bspCell struct {
	app, layer string
	job        *bspJob
}

func (c bspCell) metric() string { return c.app + "_ms." + c.layer }

// solveOut is one solve's measurements and output.
type solveOut struct {
	wall          time.Duration // rank 0, first barrier to last
	compute, comm time.Duration // largest over hosts
	rounds        int
	ranks         []float64
	dist          []uint64
}

func addU64(a, b uint64) uint64 { return a + b }

// solve runs one operation of c on every host. With tracing on, each host
// opens a root span for the solve and attributes its spans to request req.
func (e *bspEnv) solve(c bspCell, tr *Tracer, req uint64) solveOut {
	n := e.g.N
	out := solveOut{}
	if c.app == appSSSP {
		out.dist = make([]uint64, n)
	} else {
		out.ranks = make([]float64, n)
	}
	walls := make([]time.Duration, bspHosts)
	comps := make([]time.Duration, bspHosts)
	comms := make([]time.Duration, bspHosts)
	rounds := make([]int, bspHosts)
	c.job.exec(func(h *cluster.Host, s comm.Stream) {
		on := tr.On()
		var sp *openSpan
		if on {
			tr.SetRequest(h.Rank, req)
		}
		h.Barrier()
		start := time.Now()
		if on {
			sp = tr.BeginReq(h.Rank, "bsp.solve."+c.app, req)
		}
		switch c.app {
		case appPR, appSSSP:
			hg := e.vc.Hosts[h.Rank]
			rt := abelian.New(h, hg, partition.VertexCut)
			if c.app == appPR {
				f := apps.PageRank(rt, prIters)
				for m := 0; m < hg.NumMasters; m++ {
					out.ranks[hg.L2G[m]] = math.Float64frombits(f.Get(uint32(m)))
				}
			} else {
				f, _ := apps.SSSP(rt, e.source)
				for m := 0; m < hg.NumMasters; m++ {
					out.dist[hg.L2G[m]] = f.Get(uint32(m))
				}
			}
			comps[h.Rank], comms[h.Rank], rounds[h.Rank] = rt.ComputeTime, rt.CommTime, rt.Rounds
		case appGeminiPR:
			hg := e.ec.Hosts[h.Rank]
			eng := gemini.New(h, hg, s, 0, addU64)
			ranks := apps.GeminiPageRank(eng, prIters)
			for m := 0; m < hg.NumMasters; m++ {
				out.ranks[hg.L2G[m]] = ranks[m]
			}
			comps[h.Rank], comms[h.Rank], rounds[h.Rank] = eng.ComputeTime, eng.CommTime, eng.Rounds
		}
		if on {
			tr.End(h.Rank, sp)
		}
		h.Barrier()
		walls[h.Rank] = time.Since(start)
	})
	out.wall = walls[0]
	out.rounds = rounds[0]
	for r := 0; r < bspHosts; r++ {
		out.compute = max(out.compute, comps[r])
		out.comm = max(out.comm, comms[r])
	}
	return out
}

// oracles holds the single-host reference results.
type oracles struct {
	pr   []float64
	sssp []uint64
}

func (o *oracles) verify(c bspCell, s solveOut) error {
	if c.app == appSSSP {
		for v, want := range o.sssp {
			if s.dist[v] != want {
				return fmt.Errorf("%s: vertex %d distance %d, oracle %d", c.metric(), v, s.dist[v], want)
			}
		}
		return nil
	}
	if d := apps.MaxRankDelta(o.pr, s.ranks); d > 1e-9 {
		return fmt.Errorf("%s: rank differs from the oracle by %.3e", c.metric(), d)
	}
	return nil
}

func runBSP(rc runConfig, spec bspSpec) (*result, error) {
	scale := webScale
	if rc.small {
		scale = 12 // still large enough for rendezvous puts
	}
	var tr *Tracer
	if rc.trace {
		tr = NewTracer(bspHosts)
	}
	res := newResult()

	var gens, parts []float64
	env, setups, err := repeatSetup(func() (*bspEnv, error) {
		e, err := setupBSP(spec, rc.seed, scale, tr)
		if err == nil {
			gens = append(gens, e.genTime.Seconds())
			parts = append(parts, e.partTime.Seconds())
		}
		return e, err
	}, (*bspEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()
	res.setE2E("setup_s", median(setups), len(setups))
	res.layer["graph.gen_s"] = median(gens)
	res.layer["partition.build_s"] = median(parts)

	or := &oracles{pr: apps.OraclePageRank(env.g, prIters), sssp: apps.OracleSSSP(env.g, env.source)}
	l := spec.layer
	cells := []bspCell{{appPR, l, env.abelian}, {appSSSP, l, env.abelian}}
	if spec.gemini {
		cells = append(cells, bspCell{appGeminiPR, l, env.gem})
	}

	// Warm up: one unrecorded pass over every cell.
	for _, c := range cells {
		res.attempted++
		if err := or.verify(c, env.solve(c, nil, 0)); err != nil {
			return nil, err
		}
	}

	plain, traced := samples{}, samples{}
	compute, commT := samples{}, samples{}
	var exSelf []float64
	var req uint64
	var exCalls, bytesOut float64
	rounds := map[string]int{}
	var fabricPerSolve map[string]float64
	var solves, loopOps int
	netBefore := env.netSnapshot()
	deadline := time.Now().Add(time.Duration(rc.seconds * float64(time.Second)))
	for it := 0; it < 2 || time.Now().Before(deadline); it++ {
		// Collect the previous iteration's garbage outside the timed solves,
		// so no solve pays for another's and the heap peaks the same way in
		// every run.
		runtime.GC()
		on := rc.trace && it%2 == 1
		tr.SetOn(on)
		for k := range cells {
			c := cells[(k+it)%len(cells)]
			req++
			var before *telemetry.Snapshot
			var exBefore int64
			if c.app == appPR && !c.job.gemini {
				before = c.job.snapshot()
				if on {
					exBefore = tr.Count(spanExchange)
				}
			}
			res.attempted++
			s := env.solve(c, tr, req)
			if err := or.verify(c, s); err != nil {
				res.failed++
				res.wrong++
				res.notef("FAILED %v", err)
				continue
			}
			loopOps++
			if on {
				traced.add(c.metric(), ms(s.wall))
			} else {
				plain.add(c.metric(), ms(s.wall))
				solves++
				compute.add(c.app, ms(s.compute))
				commT.add(c.app, ms(s.comm))
			}
			if c.app != appGeminiPR {
				rounds[c.app] = s.rounds
			}
			if before != nil {
				after := c.job.snapshot()
				h := comm.MsgBytesMetric(c.layer)
				bytesOut = float64(after.Hist(h).Sum - before.Hist(h).Sum)
				fabricPerSolve = counterDeltas(before, after, fabric.MetricSendFrames,
					fabric.MetricSendBytes, fabric.MetricPuts, fabric.MetricPutBytes)
				if on {
					exSelf = append(exSelf, ms(tr.TakeSelf(spanExchange, req))/bspHosts)
					exCalls = float64(tr.Count(spanExchange)-exBefore) / bspHosts
				}
			}
		}
	}
	tr.SetOn(false)
	netAfter := env.netSnapshot()
	if spec.transport == "udp" {
		d := func(name string) int64 { return netAfter.Counter(name) - netBefore.Counter(name) }
		res.notef("netfabric: %d frames, %d retransmits, %d drops over %d solves", d(fabric.MetricSendFrames),
			d(fabric.MetricRetransmits), d(fabric.MetricPacketsDropped), loopOps)
	}

	// End-to-end: medians per cell, combined over the workload's two or
	// three cells.
	var meds []float64
	for _, c := range cells {
		xs := plain[c.metric()]
		meds = append(meds, median(xs))
		res.notef("%-24s median %9.2f ms  p90 %9.2f ms  n=%d", c.metric(), median(xs), quantile(xs, 0.9), len(xs))
	}
	res.setE2E("op_ms", geomean(meds), solves)
	res.setE2E("peak_rss_mib", peakRSSMiB(), 1)
	res.notef("sssp source %d, |V|=%d |E|=%d, %d verified solves (%d untraced)",
		env.source, env.g.N, env.g.NumEdges(), res.attempted-res.failed, solves)

	if !rc.trace {
		return res, nil
	}
	// Per layer.
	var ratios []float64
	for _, c := range cells {
		res.layer[c.metric()] = plain.median(c.metric())
		ratios = append(ratios, ratio(traced.median(c.metric()), plain.median(c.metric())))
	}
	res.layer["tracing.overhead_pct"] = 100 * (geomean(ratios) - 1)
	res.notef("tracing overhead %.1f%% (geomean of traced/untraced cell medians)", res.layer["tracing.overhead_pct"])
	res.layer["abelian.compute_ms."+l] = compute.median(appPR)
	res.layer["abelian.comm_ms."+l] = commT.median(appPR)
	res.layer["comm.exchange_ms."+l] = median(exSelf)
	res.layer["comm.bytes_out."+l] = bytesOut
	res.layer["comm.peak_buf_kib."+l] = float64(env.abelian.peakBuf()) / 1024
	if spec.gemini {
		res.layer["gemini.compute_ms."+l] = compute.median(appGeminiPR)
		res.layer["gemini.comm_ms."+l] = commT.median(appGeminiPR)
	}
	res.layer["abelian.rounds"] = float64(rounds[appPR] + rounds[appSSSP])
	res.layer["comm.exchange_calls"] = exCalls
	snap := env.abelian.snapshot()
	res.layer["comm.coalesced_ratio"] = ratio(float64(snap.Counter(comm.MetricMsgsCoalesced)),
		float64(snap.Hist(comm.MsgBytesMetric(l)).Count))

	if spec.transport == "udp" {
		res.layer["netfabric.send_ns"] = tr.MedianNs(spanSend)
		res.layer["netfabric.poll_hit_ratio"] = env.counts.pollHitRatio()
		netMetrics(res, netBefore, netAfter, float64(loopOps))
	} else {
		res.layer["fabric.send_frames"] = fabricPerSolve[fabric.MetricSendFrames]
		res.layer["fabric.send_bytes"] = fabricPerSolve[fabric.MetricSendBytes]
		res.layer["fabric.put_calls"] = fabricPerSolve[fabric.MetricPuts]
		res.layer["fabric.put_bytes"] = fabricPerSolve[fabric.MetricPutBytes]
		res.layer["fabric.send_ns"] = tr.MedianNs(spanSend)
		res.layer["fabric.put_ns"] = tr.MedianNs(spanPut)
		res.layer["fabric.resource_retry_ratio"] = env.counts.retryRatio()
		res.layer["fabric.poll_hit_ratio"] = env.counts.pollHitRatio()
	}
	if rc.spans != "" {
		if err := tr.WriteSpans(rc.spans); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func counterDeltas(before, after *telemetry.Snapshot, names ...string) map[string]float64 {
	m := map[string]float64{}
	for _, n := range names {
		m[n] = float64(after.Counter(n) - before.Counter(n))
	}
	return m
}

// netSnapshot merges every job's telemetry (the transport counters of all
// providers).
func (e *bspEnv) netSnapshot() *telemetry.Snapshot {
	var snaps []*telemetry.Snapshot
	for _, j := range e.jobs() {
		snaps = append(snaps, j.snapshot())
	}
	return telemetry.Merge(snaps...)
}

// netMetrics fills the netfabric metrics from the transport counters
// accumulated between two snapshots, per verified operation or per
// thousand frames sent.
func netMetrics(res *result, before, after *telemetry.Snapshot, ops float64) {
	d := func(name string) float64 { return float64(after.Counter(name) - before.Counter(name)) }
	frames := d(fabric.MetricSendFrames)
	perOp := func(name string) float64 { return ratio(d(name), ops) }
	res.layer["netfabric.retransmits_per_kframe"] = 1000 * ratio(d(fabric.MetricRetransmits), frames)
	res.layer["netfabric.acks_per_kframe"] = 1000 * ratio(d(fabric.MetricAcksSent), frames)
	res.layer["netfabric.piggyback_ratio"] = ratio(d(fabric.MetricPiggybackAcks),
		d(fabric.MetricPiggybackAcks)+d(fabric.MetricAcksSent))
	res.layer["netfabric.dup_drops"] = perOp(fabric.MetricPacketsDropped)
	res.layer["netfabric.send_batches"] = perOp(fabric.MetricSendBatches)
	res.layer["netfabric.recv_batches"] = perOp(fabric.MetricRecvBatches)
	res.layer["netfabric.gso_sends"] = perOp(fabric.MetricGSOSends)
	res.layer["netfabric.gro_coalesced"] = perOp(fabric.MetricGROCoalesced)
	res.layer["netfabric.sock_drops"] = perOp(fabric.MetricSockDrops)
	res.layer["netfabric.credit_stalls"] = perOp(fabric.MetricCreditStalls)
	var srtt int64
	for name, g := range after.Gauges {
		if strings.HasPrefix(name, netfabric.MetricSRTT) {
			srtt = max(srtt, g.Value)
		}
	}
	res.layer["netfabric.srtt_us_max"] = float64(srtt) / 1e3
}
