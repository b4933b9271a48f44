package partition

import (
	"fmt"
	"strings"
)

// Metrics summarize a partitioning's quality: the quantities that determine
// communication volume in §II's proxy model.
type Metrics struct {
	Policy Policy
	P      int
	// Replication is the average number of proxies per vertex (1.0 = no
	// mirrors anywhere).
	Replication float64
	// MaxMirrors is the largest mirror count of any single vertex.
	MaxMirrors int
	// EdgeMin/EdgeMax are the smallest and largest per-host edge counts.
	EdgeMin, EdgeMax int64
	// EdgeImbalance is EdgeMax over the mean edges per host (1.0 = every
	// host stores the same number of edges). In a bulk-synchronous round
	// the host with the most edges sets the pace.
	EdgeImbalance float64
	// SyncPairs counts (mirror, master) relationships = values moved per
	// all-updated reduce round.
	SyncPairs int64
}

// MeasureMetrics computes partitioning-quality metrics.
func (pt *Partitioned) MeasureMetrics() Metrics {
	m := Metrics{Policy: pt.Policy, P: pt.P, EdgeMin: 1 << 62}
	var proxies, edges int64
	mirrorCount := make([]int, pt.GlobalN)
	for _, hg := range pt.Hosts {
		proxies += int64(hg.NumLocal)
		e := hg.Local.NumEdges()
		edges += e
		if e < m.EdgeMin {
			m.EdgeMin = e
		}
		if e > m.EdgeMax {
			m.EdgeMax = e
		}
		for l := hg.NumMasters; l < hg.NumLocal; l++ {
			mirrorCount[hg.L2G[l]]++
			m.SyncPairs++
		}
	}
	if edges > 0 {
		m.EdgeImbalance = float64(m.EdgeMax) * float64(pt.P) / float64(edges)
	}
	if pt.GlobalN > 0 {
		m.Replication = float64(proxies) / float64(pt.GlobalN)
	}
	for _, c := range mirrorCount {
		if c > m.MaxMirrors {
			m.MaxMirrors = c
		}
	}
	return m
}

// String renders the metrics as one aligned line.
func (m Metrics) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-13s P=%-3d repl=%.2f maxMirrors=%-4d edges[min=%d max=%d imbalance=%.2f] syncPairs=%d",
		m.Policy, m.P, m.Replication, m.MaxMirrors, m.EdgeMin, m.EdgeMax, m.EdgeImbalance, m.SyncPairs)
	return b.String()
}
