package main

import (
	"errors"
	"sync/atomic"

	"lcigraph/internal/comm"
	"lcigraph/internal/fabric"
	"lcigraph/internal/memtrack"
	"lcigraph/internal/telemetry"
)

// Span names recorded by the wrappers and the workloads. The fabric names
// cover both providers; which one ran is a property of the workload.
const (
	spanExchange = "comm.Exchange"
	spanSend     = "fabric.Send"
	spanPut      = "fabric.Put"
	spanPoll     = "fabric.Poll"
	spanSendEnq  = "core.SendEnq"
	spanRecvDeq  = "core.RecvDeq"
	spanMPISend  = "mpi.Send"
	spanMPIRecv  = "mpi.Recv"
	spanIprobe   = "mpi.Iprobe"
	spanQuery    = "serve.query"
)

// verbCounts counts a traced provider's calls while tracing is on; the
// benchmark checks them against the counters the program keeps itself.
type verbCounts struct {
	sends, sendRetries atomic.Int64
	puts, putRetries   atomic.Int64
	polls, pollHits    atomic.Int64
}

// retryRatio is the share of sends and puts refused with ErrResource.
func (v *verbCounts) retryRatio() float64 {
	return ratio(float64(v.sendRetries.Load()+v.putRetries.Load()), float64(v.sends.Load()+v.puts.Load()))
}

// pollHitRatio is the share of polls that returned frames.
func (v *verbCounts) pollHitRatio() float64 {
	return ratio(float64(v.pollHits.Load()), float64(v.polls.Load()))
}

// tracedProvider wraps a fabric.Provider, recording a span for every Send,
// Put and non-empty Poll/PollBatch while the tracer is on. Everything else
// is forwarded unchanged.
type tracedProvider struct {
	inner fabric.Provider
	tr    *Tracer
	host  int
	n     *verbCounts
}

// registrarProvider is a tracedProvider over a provider that also exposes
// telemetry registration and shard views, forwarding both.
type registrarProvider struct{ *tracedProvider }

// wrapProvider wraps p so that it keeps every optional interface p has.
func wrapProvider(p fabric.Provider, tr *Tracer, host int, n *verbCounts) fabric.Provider {
	tp := &tracedProvider{inner: p, tr: tr, host: host, n: n}
	_, reg := p.(fabric.MetricsRegistrar)
	_, sh := p.(fabric.Sharder)
	if reg && sh {
		return registrarProvider{tp}
	}
	return tp
}

func (p *tracedProvider) Rank() int           { return p.inner.Rank() }
func (p *tracedProvider) Size() int           { return p.inner.Size() }
func (p *tracedProvider) EagerLimit() int     { return p.inner.EagerLimit() }
func (p *tracedProvider) HasRDMA() bool       { return p.inner.HasRDMA() }
func (p *tracedProvider) Pending() int        { return p.inner.Pending() }
func (p *tracedProvider) Stats() fabric.Stats { return p.inner.Stats() }

func (p *tracedProvider) RegisterRegion(buf []byte) (uint32, error) {
	return p.inner.RegisterRegion(buf)
}

func (p *tracedProvider) DeregisterRegion(rkey uint32) { p.inner.DeregisterRegion(rkey) }

func (p *tracedProvider) Send(dst int, header, meta uint64, data []byte) error {
	if !p.tr.On() {
		return p.inner.Send(dst, header, meta, data)
	}
	start := p.tr.Now()
	err := p.inner.Send(dst, header, meta, data)
	p.tr.Leaf(p.host, spanSend, start, p.tr.Now())
	p.n.sends.Add(1)
	if errors.Is(err, fabric.ErrResource) {
		p.n.sendRetries.Add(1)
	}
	return err
}

func (p *tracedProvider) Put(dst int, rkey uint32, offset int, data []byte, imm uint64) error {
	if !p.tr.On() {
		return p.inner.Put(dst, rkey, offset, data, imm)
	}
	start := p.tr.Now()
	err := p.inner.Put(dst, rkey, offset, data, imm)
	p.tr.Leaf(p.host, spanPut, start, p.tr.Now())
	p.n.puts.Add(1)
	if errors.Is(err, fabric.ErrResource) {
		p.n.putRetries.Add(1)
	}
	return err
}

func (p *tracedProvider) Poll() *fabric.Frame {
	if !p.tr.On() {
		return p.inner.Poll()
	}
	start := p.tr.Now()
	f := p.inner.Poll()
	p.n.polls.Add(1)
	if f != nil {
		p.tr.Leaf(p.host, spanPoll, start, p.tr.Now())
		p.n.pollHits.Add(1)
	}
	return f
}

func (p *tracedProvider) PollBatch(dst []*fabric.Frame) int {
	if !p.tr.On() {
		return p.inner.PollBatch(dst)
	}
	start := p.tr.Now()
	n := p.inner.PollBatch(dst)
	p.n.polls.Add(1)
	if n > 0 {
		p.tr.Leaf(p.host, spanPoll, start, p.tr.Now())
		p.n.pollHits.Add(1)
	}
	return n
}

func (p registrarProvider) RegisterMetrics(reg *telemetry.Registry) {
	p.inner.(fabric.MetricsRegistrar).RegisterMetrics(reg)
}

// ShardViews wraps each view the inner provider hands out, so traffic on
// every progress shard stays traced.
func (p registrarProvider) ShardViews(k int, route fabric.ShardRoute) []fabric.Provider {
	views := p.inner.(fabric.Sharder).ShardViews(k, route)
	for i, v := range views {
		views[i] = wrapProvider(v, p.tr, p.host, p.n)
	}
	return views
}

// tracedLayer wraps a comm.Layer, recording a span for every Exchange
// while the tracer is on.
type tracedLayer struct {
	inner comm.Layer
	tr    *Tracer
	host  int
}

// telemetryLayer adds comm.TelemetryProvider to tracedLayer.
type telemetryLayer struct{ *tracedLayer }

// lciLayer adds the LCI layer's optional interfaces: comm.AsyncLayer (the
// serving path) and the fused gather-send verbs Abelian looks for.
type lciLayer struct {
	telemetryLayer
	lci *comm.LCILayer
}

// wrapLayer wraps l so that it keeps every optional interface l has.
func wrapLayer(l comm.Layer, tr *Tracer, host int) comm.Layer {
	tl := &tracedLayer{inner: l, tr: tr, host: host}
	if c, ok := l.(*comm.LCILayer); ok {
		return lciLayer{telemetryLayer{tl}, c}
	}
	if _, ok := l.(comm.TelemetryProvider); ok {
		return telemetryLayer{tl}
	}
	return tl
}

func (l *tracedLayer) Name() string               { return l.inner.Name() }
func (l *tracedLayer) AllocBuf(n int) []byte      { return l.inner.AllocBuf(n) }
func (l *tracedLayer) Tracker() *memtrack.Tracker { return l.inner.Tracker() }
func (l *tracedLayer) Stop()                      { l.inner.Stop() }

func (l *tracedLayer) Exchange(tag uint32, out [][]byte, expect []bool, recvMax []int,
	onRecv func(peer int, data []byte)) {
	if !l.tr.On() {
		l.inner.Exchange(tag, out, expect, recvMax, onRecv)
		return
	}
	s := l.tr.Begin(l.host, spanExchange)
	l.inner.Exchange(tag, out, expect, recvMax, onRecv)
	l.tr.End(l.host, s)
}

func (l telemetryLayer) Telemetry() *telemetry.Registry {
	return l.inner.(comm.TelemetryProvider).Telemetry()
}

func (l lciLayer) PostTag(peer int, tag uint32, buf []byte) { l.lci.PostTag(peer, tag, buf) }

func (l lciLayer) RecvTag(tag uint32) (comm.Message, bool) { return l.lci.RecvTag(tag) }

func (l lciLayer) BeginFused(tag uint32) uint32 { return l.lci.BeginFused(tag) }

func (l lciLayer) SendFused(thread, peer int, eff uint32, data []byte) {
	l.lci.SendFused(thread, peer, eff, data)
}

func (l lciLayer) FinishFused(eff uint32, expect []bool, onRecv func(peer int, data []byte)) {
	l.lci.FinishFused(eff, expect, onRecv)
}

func (l lciLayer) FinishFusedCount(eff uint32, want int, onRecv func(peer int, data []byte)) {
	l.lci.FinishFusedCount(eff, want, onRecv)
}
