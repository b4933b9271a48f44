package main

import (
	"bufio"
	"encoding/json"
	"math/rand"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call across a layer boundary, on one host. A span
// opened while another is open on the same host is its child, and so is
// every call into a lower layer that the host makes meanwhile, from any of
// its goroutines (the progress thread's polls included). A span's self
// time is its duration minus the part of it that the union of its
// children's intervals covers: the time the layer spent outside the layers
// below it.
type Span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Req    uint64 `json:"req"`  // solve, batch or query id shared by the spans of one request
	Host   int    `json:"host"` // rank the call ran on
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// maxStoredSpans bounds the spans kept for the end-of-run dump; later spans
// still feed the per-name statistics.
const maxStoredSpans = 100_000

// reservoirCap bounds the per-name, per-host duration samples kept for
// percentiles.
const reservoirCap = 1 << 15

// spanStats aggregates the ended spans of one name on one host.
type spanStats struct {
	count   int64
	samples []int64 // reservoir of durations
}

// openSpan is a span in progress.
type openSpan struct {
	Span
	children [][2]int64 // intervals of the spans that ended inside it
}

// lane is one host's span state. The host's own goroutine opens and closes
// spans on it; any goroutine may add leaf spans, hence the lock.
type lane struct {
	mu      sync.Mutex
	open    []*openSpan
	req     uint64 // request attributed to spans opened outside any span
	rng     *rand.Rand
	stats   map[string]*spanStats
	selfReq map[reqKey]int64 // self time per (name, request)
	stored  []Span
}

type reqKey struct {
	name string
	req  uint64
}

// Tracer records spans in memory, one lane per host. A nil *Tracer, or
// one that is switched off, records nothing; wrappers test On before
// paying for a clock read.
type Tracer struct {
	on      atomic.Bool
	epoch   time.Time
	nextID  atomic.Uint64
	nStored atomic.Int64
	lanes   []*lane
}

// NewTracer returns a tracer for hosts lanes, initially off.
func NewTracer(hosts int) *Tracer {
	t := &Tracer{epoch: time.Now(), lanes: make([]*lane, hosts)}
	for i := range t.lanes {
		t.lanes[i] = &lane{
			rng:     rand.New(rand.NewSource(int64(i) + 1)),
			stats:   map[string]*spanStats{},
			selfReq: map[reqKey]int64{},
		}
	}
	return t
}

// On reports whether spans are being recorded.
func (t *Tracer) On() bool { return t != nil && t.on.Load() }

// SetOn switches recording on or off.
func (t *Tracer) SetOn(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

// Now returns the tracer clock: nanoseconds since the tracer was built.
func (t *Tracer) Now() int64 { return int64(time.Since(t.epoch)) }

// SetRequest makes id the request of host's spans opened outside any span.
func (t *Tracer) SetRequest(host int, id uint64) {
	l := t.lanes[host]
	l.mu.Lock()
	l.req = id
	l.mu.Unlock()
}

// Begin opens a span on host; it belongs to the enclosing span's request,
// or to the host's current request. Only one goroutine per host may open
// spans, and it closes them innermost first. Call only when On.
func (t *Tracer) Begin(host int, name string) *openSpan {
	return t.begin(host, name, 0)
}

// BeginReq is Begin for a span of request req.
func (t *Tracer) BeginReq(host int, name string, req uint64) *openSpan {
	return t.begin(host, name, req)
}

func (t *Tracer) begin(host int, name string, req uint64) *openSpan {
	l := t.lanes[host]
	s := &openSpan{Span: Span{ID: t.nextID.Add(1), Name: name, Host: host}}
	l.mu.Lock()
	if n := len(l.open); n > 0 {
		s.Parent, s.Req = l.open[n-1].ID, l.open[n-1].Req
	} else {
		s.Req = l.req
	}
	if req != 0 {
		s.Req = req
	}
	l.open = append(l.open, s)
	l.mu.Unlock()
	s.Start = t.Now()
	return s
}

// End closes s, the innermost open span of host, and records it.
func (t *Tracer) End(host int, s *openSpan) {
	end := t.Now()
	l := t.lanes[host]
	l.mu.Lock()
	l.open = l.open[:len(l.open)-1]
	s.End = end
	s.Self = (end - s.Start) - covered(s.children, s.Start, end)
	if n := len(l.open); n > 0 {
		p := l.open[n-1]
		p.children = append(p.children, [2]int64{s.Start, end})
	}
	t.record(l, s.Span)
	l.mu.Unlock()
}

// Drop closes s without recording it (a dequeue that found nothing).
func (t *Tracer) Drop(host int, s *openSpan) {
	l := t.lanes[host]
	l.mu.Lock()
	l.open = l.open[:len(l.open)-1]
	l.mu.Unlock()
}

// Leaf records a call into a lower layer made by any goroutine of host,
// timed by the caller as [start, end] on the tracer clock: a fabric verb
// called from inside the program. It is a child of host's innermost open
// span, if any.
func (t *Tracer) Leaf(host int, name string, start, end int64) {
	l := t.lanes[host]
	s := Span{ID: t.nextID.Add(1), Name: name, Host: host, Start: start, End: end, Self: end - start}
	l.mu.Lock()
	if n := len(l.open); n > 0 {
		p := l.open[n-1]
		s.Parent, s.Req = p.ID, p.Req
		p.children = append(p.children, [2]int64{start, end})
	} else {
		s.Req = l.req
	}
	t.record(l, s)
	l.mu.Unlock()
}

// Record adds a span timed elsewhere (a query timed from its scheduled
// send). It has no parent and no children.
func (t *Tracer) Record(host int, name string, req uint64, start, end time.Time) {
	l := t.lanes[host]
	s := Span{
		ID: t.nextID.Add(1), Name: name, Host: host, Req: req,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
	}
	s.Self = s.End - s.Start
	l.mu.Lock()
	t.record(l, s)
	l.mu.Unlock()
}

// covered returns how much of [lo, hi] the union of ivs covers. It sorts
// ivs in place.
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo // everything before cur is already counted
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// record adds s to l's statistics; l.mu is held.
func (t *Tracer) record(l *lane, s Span) {
	st := l.stats[s.Name]
	if st == nil {
		st = &spanStats{}
		l.stats[s.Name] = st
	}
	st.count++
	if dur := s.End - s.Start; len(st.samples) < reservoirCap {
		st.samples = append(st.samples, dur)
	} else if j := l.rng.Int63n(st.count); j < reservoirCap {
		st.samples[j] = dur
	}
	if s.Req != 0 {
		l.selfReq[reqKey{s.Name, s.Req}] += s.Self
	}
	if t.nStored.Add(1) <= maxStoredSpans {
		l.stored = append(l.stored, s)
	}
}

// Count returns how many spans named name ended, on all hosts.
func (t *Tracer) Count(name string) int64 {
	var n int64
	for _, l := range t.lanes {
		l.mu.Lock()
		if st := l.stats[name]; st != nil {
			n += st.count
		}
		l.mu.Unlock()
	}
	return n
}

// MedianNs returns the median duration of the spans named name on all
// hosts (0 if none). Each host's samples are weighted by how many spans
// they stand for.
func (t *Tracer) MedianNs(name string) float64 {
	type wv struct{ v, w float64 }
	var xs []wv
	var total float64
	for _, l := range t.lanes {
		l.mu.Lock()
		if st := l.stats[name]; st != nil && len(st.samples) > 0 {
			w := float64(st.count) / float64(len(st.samples))
			for _, d := range st.samples {
				xs = append(xs, wv{float64(d), w})
			}
			total += float64(st.count)
		}
		l.mu.Unlock()
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i].v < xs[j].v })
	var acc float64
	for _, x := range xs {
		acc += x.w
		if acc >= total/2 {
			return x.v
		}
	}
	return 0
}

// TakeSelf returns and forgets the self time, summed over hosts, of the
// spans named name that belong to request req.
func (t *Tracer) TakeSelf(name string, req uint64) time.Duration {
	var d int64
	k := reqKey{name, req}
	for _, l := range t.lanes {
		l.mu.Lock()
		d += l.selfReq[k]
		delete(l.selfReq, k)
		l.mu.Unlock()
	}
	return time.Duration(d)
}

// WriteSpans writes the stored spans to path as JSON lines ordered by
// start time, then a line counting the spans that were not stored.
func (t *Tracer) WriteSpans(path string) error {
	var spans []Span
	for _, l := range t.lanes {
		l.mu.Lock()
		spans = append(spans, l.stored...)
		l.mu.Unlock()
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	notStored := max(0, t.nStored.Load()-maxStoredSpans)
	if err := enc.Encode(map[string]int64{"spans_not_stored": notStored}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
