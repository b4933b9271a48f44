package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	lci "lcigraph/internal/core"
	"lcigraph/internal/fabric"
	"lcigraph/internal/mpi"
	"lcigraph/internal/telemetry"
)

// The msgrate workloads stream small messages both ways between two hosts
// on the simulated fabric, one verified batch per operation, through the
// LCI queue path (SendEnq/RecvDeq) or the MPI probe path (Send, then Iprobe
// and an exact-size Recv), one path per workload.
const (
	msgMin      = 8
	msgMax      = 512
	msgSeqs     = 1 << 16 // distinct sizes per direction; sequence numbers wrap onto them
	msgPoolSize = 1 << 20 // seeded payload bytes messages are cut from
	msgBatch    = 2000    // messages per direction per batch
)

const (
	pathQueue = "queue"
	pathProbe = "probe"
)

// msgInputs is the seeded message plan: per direction a size for every
// sequence number, and the bytes payloads are cut from.
type msgInputs struct {
	sizes [2][]int
	pool  []byte
}

func genMsgInputs(seed int64) *msgInputs {
	rng := rand.New(rand.NewSource(seed))
	in := &msgInputs{pool: make([]byte, msgPoolSize)}
	for r := range in.sizes {
		in.sizes[r] = make([]int, msgSeqs)
		for i := range in.sizes[r] {
			in.sizes[r][i] = msgMin + rng.Intn(msgMax-msgMin+1)
		}
	}
	rng.Read(in.pool)
	return in
}

// body returns the payload of message seq from rank r: its seeded size,
// cut from the pool at a seq-dependent offset. The first four bytes are
// replaced by seq on the wire (fill), so the receiver knows what to expect.
func (in *msgInputs) body(r int, seq uint32) []byte {
	size := in.sizes[r][seq%msgSeqs]
	off := (int(seq)*131 + r*7919) % (msgPoolSize - msgMax)
	return in.pool[off : off+size]
}

func (in *msgInputs) fill(buf []byte, r int, seq uint32) []byte {
	b := buf[:copy(buf, in.body(r, seq))]
	binary.LittleEndian.PutUint32(b, seq)
	return b
}

// check verifies one message from rank r of the batch [base, base+n).
// A message that fails it counts as delivered and as bad.
func (in *msgInputs) check(r int, base uint32, seen []bool, data []byte) error {
	if len(data) < 4 {
		return fmt.Errorf("message from %d is %d bytes", r, len(data))
	}
	seq := binary.LittleEndian.Uint32(data)
	i := int(seq - base)
	if i < 0 || i >= len(seen) || seen[i] {
		return fmt.Errorf("message from %d: unexpected or repeated sequence %d", r, seq)
	}
	seen[i] = true
	want := in.body(r, seq)
	if len(data) != len(want) || !bytes.Equal(data[4:], want[4:]) {
		return fmt.Errorf("message %d from %d: %d bytes, want %d, or payload differs", seq, r, len(data), len(want))
	}
	return nil
}

// pathCounts are one host's call counts for one batch.
type pathCounts struct {
	sends, sendFails int64 // SendEnq calls / refusals
	deqs, deqHits    int64 // RecvDeq calls / calls that returned a message
	iprobes, msgs    int64 // Iprobe calls / messages delivered
	bad              int64 // delivered messages that failed their check
}

func (c *pathCounts) add(o pathCounts) {
	c.sends += o.sends
	c.sendFails += o.sendFails
	c.deqs += o.deqs
	c.deqHits += o.deqHits
	c.iprobes += o.iprobes
	c.msgs += o.msgs
	c.bad += o.bad
}

// msgEnv holds the resident endpoints of one path: LCI endpoints with
// their progress loops for the queue path, an MPI world for the probe path.
type msgEnv struct {
	path    string
	in      *msgInputs
	eps     [2]*lci.Endpoint
	workers [2]int
	comms   [2]*mpi.Comm
	stop    chan struct{}
	served  sync.WaitGroup
	regs    []*telemetry.Registry // the fabric's counters
	counts  *verbCounts
	next    [2]uint32 // next sequence number per sender
}

func setupMsgrate(seed int64, path string, tr *Tracer) *msgEnv {
	e := &msgEnv{path: path, in: genMsgInputs(seed), stop: make(chan struct{}), counts: &verbCounts{}}
	feps, _, _ := newTransport("sim", 2, tr, e.counts)
	e.regs = hostRegistries(feps)
	if path == pathProbe {
		world := mpi.NewWorldOver(feps, mpi.IntelMPI(), mpi.ThreadFunneled)
		for r := range e.comms {
			e.comms[r] = world.Comm(r)
		}
		return e
	}
	for r := range e.eps {
		e.eps[r] = lci.NewEndpoint(feps[r], lci.Options{Workers: 1, Telemetry: e.regs[r]})
		e.workers[r] = e.eps[r].Pool().RegisterWorker()
		e.served.Add(1)
		go func(ep *lci.Endpoint) {
			defer e.served.Done()
			ep.Serve(e.stop)
		}(e.eps[r])
	}
	return e
}

func (e *msgEnv) close() {
	close(e.stop)
	e.served.Wait()
}

// batch runs one batch with both hosts sending and receiving concurrently,
// and returns its duration and the hosts' call counts. On the probe path, a
// host whose Send or Recv fails stops both hosts' loops, so that neither
// waits for messages that will not come.
func (e *msgEnv) batch(n int, tr *Tracer) (time.Duration, pathCounts, error) {
	var wg sync.WaitGroup
	var counts [2]pathCounts
	var errs [2]error
	var stop atomic.Bool
	bases := e.next
	start := time.Now()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			if e.path == pathQueue {
				counts[r], errs[r] = e.queueLoop(r, bases, n, tr)
			} else {
				counts[r], errs[r] = e.probeLoop(r, bases, n, tr, &stop)
			}
		}(r)
	}
	wg.Wait()
	d := time.Since(start)
	for r := range e.next {
		e.next[r] += uint32(n)
	}
	counts[0].add(counts[1])
	if errs[0] != nil {
		return d, counts[0], errs[0]
	}
	return d, counts[0], errs[1]
}

func (e *msgEnv) queueLoop(r int, bases [2]uint32, n int, tr *Tracer) (pathCounts, error) {
	on := tr.On()
	var c pathCounts
	ep, w, peer := e.eps[r], e.workers[r], 1-r
	buf := make([]byte, msgMax)
	seen := make([]bool, n)
	var err error
	for sent, got := 0, 0; sent < n || got < n; {
		progressed := false
		if sent < n {
			b := e.in.fill(buf, r, bases[r]+uint32(sent))
			var sp *openSpan
			if on {
				sp = tr.Begin(r, spanSendEnq)
			}
			_, ok := ep.SendEnq(w, peer, 0, b)
			if on {
				tr.End(r, sp)
			}
			c.sends++
			if ok {
				sent++
				progressed = true
			} else {
				c.sendFails++
			}
		}
		var sp *openSpan
		if on {
			sp = tr.Begin(r, spanRecvDeq)
		}
		req, ok := ep.RecvDeq()
		c.deqs++
		if on {
			if ok {
				tr.End(r, sp)
			} else {
				tr.Drop(r, sp)
			}
		}
		if ok {
			c.deqHits++
			req.Wait(nil) // eager receives are complete on dequeue; this is free then
			if cerr := e.in.check(peer, bases[peer], seen, req.Data); cerr != nil {
				c.bad++
				if err == nil {
					err = cerr
				}
			}
			req.Release()
			got++
			c.msgs++
			progressed = true
		}
		if !progressed {
			runtime.Gosched()
		}
	}
	return c, err
}

func (e *msgEnv) probeLoop(r int, bases [2]uint32, n int, tr *Tracer, stop *atomic.Bool) (pathCounts, error) {
	on := tr.On()
	var c pathCounts
	comm, peer := e.comms[r], 1-r
	buf := make([]byte, msgMax)
	recv := make([]byte, msgMax)
	seen := make([]bool, n)
	var err error
	fail := func(ferr error) (pathCounts, error) {
		stop.Store(true)
		return c, ferr
	}
	for sent, got := 0, 0; (sent < n || got < n) && !stop.Load(); {
		if sent < n {
			b := e.in.fill(buf, r, bases[r]+uint32(sent))
			var sp *openSpan
			if on {
				sp = tr.Begin(r, spanMPISend)
			}
			serr := comm.Send(b, peer, 0)
			if on {
				tr.End(r, sp)
			}
			if serr != nil {
				return fail(fmt.Errorf("probe: send: %w", serr))
			}
			sent++
		}
		var sp *openSpan
		if on {
			sp = tr.Begin(r, spanIprobe)
		}
		st, ok := comm.Iprobe(peer, 0)
		if on {
			tr.End(r, sp)
		}
		c.iprobes++
		if !ok {
			if sent == n {
				runtime.Gosched()
			}
			continue
		}
		if on {
			sp = tr.Begin(r, spanMPIRecv)
		}
		_, rerr := comm.Recv(recv[:st.Count], st.Source, st.Tag)
		if on {
			tr.End(r, sp)
		}
		if rerr != nil {
			return fail(fmt.Errorf("probe: recv: %w", rerr))
		}
		if cerr := e.in.check(peer, bases[peer], seen, recv[:st.Count]); cerr != nil {
			c.bad++
			if err == nil {
				err = cerr
			}
		}
		got++
		c.msgs++
	}
	return c, err
}

func msgrateWorkload(path string) func(runConfig) (*result, error) {
	return func(rc runConfig) (*result, error) { return runMsgrate(rc, path) }
}

func runMsgrate(rc runConfig, path string) (*result, error) {
	n := msgBatch
	if rc.small {
		n = 200
	}
	var tr *Tracer
	if rc.trace {
		tr = NewTracer(2)
	}
	res := newResult()
	env, setups, _ := repeatSetup(func() (*msgEnv, error) { return setupMsgrate(rc.seed, path, tr), nil },
		(*msgEnv).close)
	defer env.close()
	res.setE2E("setup_s", median(setups), len(setups))

	res.attempted += int64(2 * n) // warm-up
	if _, _, err := env.batch(n, nil); err != nil {
		return nil, err
	}
	var perK, tperK []float64 // untraced and traced ms per 1000 messages
	var counts pathCounts
	var frames map[string]float64
	deadline := time.Now().Add(time.Duration(rc.seconds * float64(time.Second)))
	for it := 0; it < 2 || time.Now().Before(deadline); it++ {
		on := rc.trace && it%2 == 1
		tr.SetOn(on)
		var before *telemetry.Snapshot
		if frames == nil && !on {
			before = mergeSnapshots(env.regs)
		}
		res.attempted += int64(2 * n)
		d, c, err := env.batch(n, tr)
		if err != nil {
			res.failed += int64(2*n) - c.msgs + c.bad
			res.wrong += c.bad
			res.notef("FAILED %v", err)
			if c.msgs < int64(2*n) {
				break // undelivered messages would arrive in the next batch
			}
			continue
		}
		perMsgK := ms(d) * 1000 / float64(2*n)
		if on {
			tperK = append(tperK, perMsgK)
			continue
		}
		perK = append(perK, perMsgK)
		counts.add(c)
		if before != nil {
			frames = counterDeltas(before, mergeSnapshots(env.regs),
				fabric.MetricSendFrames, fabric.MetricSendBytes, fabric.MetricPuts, fabric.MetricPutBytes)
			for k, v := range frames {
				frames[k] = v * 1000 / float64(2*n)
			}
		}
	}
	tr.SetOn(false)

	res.notef("%-6s %10.0f msg/s  median %.3f ms/1000 msgs  p90 %.3f  n=%d batches of %d",
		path, 1000/median(perK)*1000, median(perK), quantile(perK, 0.9), len(perK), 2*n)
	res.setE2E("op_ms", median(perK), len(perK))
	res.setE2E("peak_rss_mib", peakRSSMiB(), 1)
	if !rc.trace {
		return res, nil
	}

	res.layer["msgs_per_s."+path] = 1e6 / median(perK)
	res.layer["tracing.overhead_pct"] = 100 * (ratio(median(tperK), median(perK)) - 1)
	res.notef("tracing overhead %.1f%% (traced/untraced batch medians)", res.layer["tracing.overhead_pct"])
	if path == pathQueue {
		res.layer["core.sendenq_ns"] = tr.MedianNs(spanSendEnq)
		res.layer["core.recvdeq_ns"] = tr.MedianNs(spanRecvDeq)
		res.layer["core.sendenq_fail_ratio"] = ratio(float64(counts.sendFails), float64(counts.sends))
		res.layer["core.recvdeq_hit_ratio"] = ratio(float64(counts.deqHits), float64(counts.deqs))
	} else {
		res.layer["mpi.send_ns"] = tr.MedianNs(spanMPISend)
		res.layer["mpi.recv_ns"] = tr.MedianNs(spanMPIRecv)
		res.layer["mpi.iprobe_per_msg"] = ratio(float64(counts.iprobes), float64(counts.msgs))
	}
	res.layer["fabric.send_frames"] = frames[fabric.MetricSendFrames]
	res.layer["fabric.send_bytes"] = frames[fabric.MetricSendBytes]
	res.layer["fabric.put_calls"] = frames[fabric.MetricPuts]
	res.layer["fabric.put_bytes"] = frames[fabric.MetricPutBytes]
	res.layer["fabric.send_ns"] = tr.MedianNs(spanSend)
	res.layer["fabric.put_ns"] = tr.MedianNs(spanPut)
	res.layer["fabric.resource_retry_ratio"] = env.counts.retryRatio()
	res.layer["fabric.poll_hit_ratio"] = env.counts.pollHitRatio()
	if rc.spans != "" {
		if err := tr.WriteSpans(rc.spans); err != nil {
			return nil, err
		}
	}
	return res, nil
}
