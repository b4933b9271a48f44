package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"lcigraph/internal/fabric"
)

// TestSmoke runs every workload briefly on tiny inputs, untraced and
// traced, with verification on.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			// Long enough for the serving phase to cover a traced window.
			rc := runConfig{seed: 3, seconds: 2, trace: trace, small: true}
			res, err := w.run(rc)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if res.wrong != 0 || res.failed != 0 {
				t.Errorf("%s trace=%v: %d wrong, %d failed of %d\n%v", w.name, trace,
					res.wrong, res.failed, res.attempted, res.notes)
			}
			if _, err := report(w.name, rc, Fingerprint{}, res); err != nil {
				t.Errorf("%s trace=%v: %v", w.name, trace, err)
			}
			if !trace {
				continue
			}
			// Each workload measures the layers it runs.
			want := map[string][]string{
				"bsp-sim-lci":       {"pr_ms.lci", "abelian.rounds", "comm.exchange_ms.lci", "fabric.put_calls", "gemini.comm_ms.lci"},
				"bsp-sim-mpi-probe": {"sssp_ms.mpi-probe", "comm.peak_buf_kib.mpi-probe", "fabric.send_frames", "gemini_pr_ms.mpi-probe"},
				"bsp-sim-mpi-rma":   {"pr_ms.mpi-rma", "abelian.comm_ms.mpi-rma", "comm.bytes_out.mpi-rma", "fabric.put_bytes"},
				"bsp-udp-lci":       {"sssp_ms.lci", "comm.exchange_calls", "netfabric.send_ns", "netfabric.acks_per_kframe"},
				"bsp-udp-mpi-probe": {"pr_ms.mpi-probe", "comm.exchange_ms.mpi-probe", "netfabric.send_batches"},
				"msgrate-queue":     {"msgs_per_s.queue", "core.sendenq_ns", "core.recvdeq_hit_ratio", "fabric.send_frames"},
				"msgrate-probe":     {"msgs_per_s.probe", "mpi.send_ns", "mpi.iprobe_per_msg", "fabric.send_frames"},
				"serve-udp":         {"query_p99_ms", "goodput_qps", "serve.latency_ms.khop", "netfabric.send_ns"},
			}[w.name]
			if want == nil {
				t.Errorf("%s: no per-layer metrics to check", w.name)
			}
			for _, m := range want {
				if res.layer[m] <= 0 {
					t.Errorf("%s: per-layer metric %s = %v", w.name, m, res.layer[m])
				}
			}
		}
	}
}

// TestExactCountsUnchangedByTracing solves the same PageRank on the LCI
// layer without and with the tracing wrappers: the program's own exact
// counters must agree, and the wrappers must count what the program counts.
func TestExactCountsUnchangedByTracing(t *testing.T) {
	spec := bspSpec{transport: "sim", layer: layerLCI}
	counts := func(tr *Tracer) (map[string]float64, int, *verbCounts) {
		env, err := setupBSP(spec, 5, 12, tr)
		if err != nil {
			t.Fatal(err)
		}
		defer env.close()
		job := env.abelian
		tr.SetOn(true)
		before := job.snapshot()
		s := env.solve(bspCell{appPR, layerLCI, job}, tr, 1)
		after := job.snapshot()
		tr.SetOn(false)
		return counterDeltas(before, after, fabric.MetricSendFrames, fabric.MetricSendBytes,
			fabric.MetricPuts, fabric.MetricPutBytes), s.rounds, env.counts
	}
	plain, plainRounds, _ := counts(nil)
	traced, tracedRounds, n := counts(NewTracer(bspHosts))
	if !reflect.DeepEqual(plain, traced) || plainRounds != tracedRounds {
		t.Errorf("untraced %v rounds %d, traced %v rounds %d", plain, plainRounds, traced, tracedRounds)
	}
	if plain[fabric.MetricPuts] == 0 {
		t.Error("no puts: the solve did not exercise rendezvous")
	}
	if got := float64(n.puts.Load()); got != traced[fabric.MetricPuts] {
		t.Errorf("wrapper counted %v puts, fabric counted %v", got, traced[fabric.MetricPuts])
	}
	if got := float64(n.sends.Load() - n.sendRetries.Load()); got != traced[fabric.MetricSendFrames] {
		t.Errorf("wrapper counted %v accepted sends, fabric counted %v frames", got, traced[fabric.MetricSendFrames])
	}
}

// TestMsgrateCountsBadMessages makes every message host 1 sends fail host
// 0's check, on both paths: each must count as delivered and as bad.
func TestMsgrateCountsBadMessages(t *testing.T) {
	const n = 100
	for _, path := range []string{pathQueue, pathProbe} {
		env := setupMsgrate(7, path, nil)
		var wg sync.WaitGroup
		var counts [2]pathCounts
		var errs [2]error
		var stop atomic.Bool
		for r := 0; r < 2; r++ {
			// Host 1 numbers its messages from n, host 0 expects them from 0.
			bases := [2]uint32{0, uint32(n * r)}
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				if path == pathQueue {
					counts[r], errs[r] = env.queueLoop(r, bases, n, nil)
				} else {
					counts[r], errs[r] = env.probeLoop(r, bases, n, nil, &stop)
				}
			}(r)
		}
		wg.Wait()
		env.close()
		if counts[0].msgs != n || counts[0].bad != n || errs[0] == nil {
			t.Errorf("%s: host 0 got %d messages, %d bad, error %v; want %d, %d, an error",
				path, counts[0].msgs, counts[0].bad, errs[0], n, n)
		}
		if counts[1].msgs != n || counts[1].bad != 0 || errs[1] != nil {
			t.Errorf("%s: host 1 got %d messages, %d bad, error %v; want %d, 0, none",
				path, counts[1].msgs, counts[1].bad, errs[1], n)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json at the repository root in
// step with the metric tables and workloads defined here.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, want)
	}
	check := func(kind string, got []struct{ Name, Unit string }, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, benchmark reports %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], benchmark %s [%s]", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}
