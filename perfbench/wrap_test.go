package main

import (
	"reflect"
	"testing"

	"lcigraph/internal/comm"
	"lcigraph/internal/fabric"
	"lcigraph/internal/mpi"
	"lcigraph/internal/netfabric"
	"lcigraph/internal/telemetry"
)

// fakeProvider records the verbs that reach it and answers with fixed
// values, so the test can see that the wrapper forwards each one.
type fakeProvider struct {
	calls      []string
	registered *telemetry.Registry
}

func (f *fakeProvider) note(s string) { f.calls = append(f.calls, s) }

func (f *fakeProvider) Rank() int       { f.note("Rank"); return 3 }
func (f *fakeProvider) Size() int       { f.note("Size"); return 5 }
func (f *fakeProvider) EagerLimit() int { f.note("EagerLimit"); return 77 }
func (f *fakeProvider) HasRDMA() bool   { f.note("HasRDMA"); return true }
func (f *fakeProvider) Send(dst int, header, meta uint64, data []byte) error {
	f.note("Send")
	return fabric.ErrResource
}
func (f *fakeProvider) RegisterRegion(buf []byte) (uint32, error) {
	f.note("RegisterRegion")
	return 9, nil
}
func (f *fakeProvider) DeregisterRegion(rkey uint32) { f.note("DeregisterRegion") }
func (f *fakeProvider) Put(dst int, rkey uint32, offset int, data []byte, imm uint64) error {
	f.note("Put")
	return nil
}
func (f *fakeProvider) Poll() *fabric.Frame               { f.note("Poll"); return nil }
func (f *fakeProvider) PollBatch(dst []*fabric.Frame) int { f.note("PollBatch"); return 0 }
func (f *fakeProvider) Pending() int                      { f.note("Pending"); return 4 }
func (f *fakeProvider) Stats() fabric.Stats               { f.note("Stats"); return fabric.Stats{Puts: 11} }

// fakeRegistrar adds the optional interfaces.
type fakeRegistrar struct{ *fakeProvider }

func (f fakeRegistrar) RegisterMetrics(reg *telemetry.Registry) {
	f.note("RegisterMetrics")
	f.registered = reg
}

func (f fakeRegistrar) ShardViews(k int, route fabric.ShardRoute) []fabric.Provider {
	f.note("ShardViews")
	views := make([]fabric.Provider, k)
	for i := range views {
		views[i] = &fakeProvider{}
	}
	return views
}

func TestProviderWrapperForwardsEveryVerb(t *testing.T) {
	for _, traced := range []bool{false, true} {
		inner := &fakeProvider{}
		tr := NewTracer(1)
		tr.SetOn(traced)
		var n verbCounts
		p := wrapProvider(fakeRegistrar{inner}, tr, 0, &n)
		if p.Rank() != 3 || p.Size() != 5 || p.EagerLimit() != 77 || !p.HasRDMA() || p.Pending() != 4 {
			t.Fatal("identity verbs not forwarded")
		}
		if err := p.Send(1, 0, 0, nil); err != fabric.ErrResource {
			t.Fatalf("Send returned %v, want the inner ErrResource", err)
		}
		if k, err := p.RegisterRegion(nil); k != 9 || err != nil {
			t.Fatal("RegisterRegion not forwarded")
		}
		p.DeregisterRegion(9)
		if err := p.Put(1, 9, 0, nil, 0); err != nil {
			t.Fatal(err)
		}
		if p.Poll() != nil || p.PollBatch(nil) != 0 || p.Stats().Puts != 11 {
			t.Fatal("poll/stats not forwarded")
		}
		reg := telemetry.New(0)
		p.(fabric.MetricsRegistrar).RegisterMetrics(reg)
		if inner.registered != reg {
			t.Fatal("RegisterMetrics not forwarded")
		}
		views := p.(fabric.Sharder).ShardViews(2, fabric.ShardRoute{})
		if len(views) != 2 {
			t.Fatalf("%d shard views", len(views))
		}
		if _, ok := views[0].(*tracedProvider); !ok {
			t.Fatalf("shard view %T is not traced", views[0])
		}
		want := []string{"Rank", "Size", "EagerLimit", "HasRDMA", "Pending", "Send", "RegisterRegion",
			"DeregisterRegion", "Put", "Poll", "PollBatch", "Stats", "RegisterMetrics", "ShardViews"}
		if !reflect.DeepEqual(inner.calls, want) {
			t.Errorf("traced=%v: inner saw %v, want %v", traced, inner.calls, want)
		}
		wantSends := int64(0)
		if traced {
			wantSends = 1
		}
		if n.sends.Load() != wantSends || n.sendRetries.Load() != wantSends || n.polls.Load() != 2*wantSends {
			t.Errorf("traced=%v: counted %d sends, %d retries, %d polls", traced,
				n.sends.Load(), n.sendRetries.Load(), n.polls.Load())
		}
	}
}

// optionalInterfaces lists which optional interfaces v implements.
func optionalInterfaces(v any) []string {
	type fused interface {
		BeginFused(tag uint32) uint32
		SendFused(thread, peer int, eff uint32, data []byte)
		FinishFused(eff uint32, expect []bool, onRecv func(peer int, data []byte))
	}
	var got []string
	if _, ok := v.(fabric.MetricsRegistrar); ok {
		got = append(got, "MetricsRegistrar")
	}
	if _, ok := v.(fabric.Sharder); ok {
		got = append(got, "Sharder")
	}
	if _, ok := v.(comm.AsyncLayer); ok {
		got = append(got, "AsyncLayer")
	}
	if _, ok := v.(comm.TelemetryProvider); ok {
		got = append(got, "TelemetryProvider")
	}
	if _, ok := v.(fused); ok {
		got = append(got, "fused")
	}
	return got
}

func TestWrappersKeepOptionalInterfaces(t *testing.T) {
	tr := NewTracer(2)
	fab := fabric.New(2, fabric.TestProfile())
	provs, err := netfabric.NewLoopbackGroup(2, netfabric.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer netfabric.CloseGroup(provs)
	for _, p := range []fabric.Provider{fab.Endpoint(0), provs[0], &fakeProvider{}} {
		w := wrapProvider(p, tr, 0, &verbCounts{})
		if a, b := optionalInterfaces(p), optionalInterfaces(w); !reflect.DeepEqual(a, b) {
			t.Errorf("%T: wrapper has %v, provider has %v", p, b, a)
		}
	}

	reg := telemetry.New(0)
	world := mpi.NewWorld(2, fabric.TestProfile(), mpi.TestImpl(), mpi.ThreadMultiple)
	opt := lciOptions()
	opt.Telemetry = reg
	probe := comm.NewProbeLayer(world.Comm(0))
	probe.SetTelemetry(reg)
	rma := comm.NewRMALayer(world.Comm(1))
	rma.SetTelemetry(reg)
	layers := []comm.Layer{comm.NewLCILayer(fab.Endpoint(1), opt), probe, rma}
	for _, l := range layers {
		defer l.Stop()
		w := wrapLayer(l, tr, 0)
		if a, b := optionalInterfaces(l), optionalInterfaces(w); !reflect.DeepEqual(a, b) {
			t.Errorf("%T: wrapper has %v, layer has %v", l, b, a)
		}
		if w.(comm.TelemetryProvider).Telemetry() != reg {
			t.Errorf("%T: Telemetry not forwarded", l)
		}
		if w.Name() != l.Name() || w.Tracker() != l.Tracker() {
			t.Errorf("%T: Name/Tracker not forwarded", l)
		}
	}
}
