package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"

	"lcigraph/internal/netfabric"
)

// Fingerprint records the environment a result was measured in. Results
// whose fingerprints differ are not compared silently (runCompare).
type Fingerprint struct {
	Nproc        int      `json:"nproc"`
	GOMAXPROCS   int      `json:"gomaxprocs"`
	Kernel       string   `json:"kernel"`
	VM           string   `json:"vm"`
	GoVersion    string   `json:"go"`
	GitSHA       string   `json:"git_sha"` // of the code measured; expected to differ between compared runs
	NetTiers     string   `json:"netfabric_tiers"`
	ReaderShards int      `json:"netfabric_reader_shards"`
	Env          []string `json:"env"` // LCI_* knobs set in the environment
}

func fingerprint() Fingerprint {
	fp := Fingerprint{
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel:     readTrim("/proc/sys/kernel/osrelease"),
		VM:         detectVM(),
		GoVersion:  runtime.Version(),
		GitSHA:     os.Getenv("PERFBENCH_GIT_SHA"),
		NetTiers:   "unavailable",
	}
	if fp.GitSHA == "" {
		fp.GitSHA = "unknown"
	}
	// The tiers a loopback provider negotiates with this kernel are the
	// ones the UDP workloads run on.
	if provs, err := netfabric.NewLoopbackGroup(2, netfabric.Config{}); err == nil {
		fp.NetTiers = provs[0].Capabilities()
		fp.ReaderShards = provs[0].ReaderShards()
		netfabric.CloseGroup(provs)
	}
	for _, kv := range os.Environ() {
		if strings.HasPrefix(kv, "LCI_") {
			fp.Env = append(fp.Env, kv)
		}
	}
	sort.Strings(fp.Env)
	return fp
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// detectVM reports "hypervisor" when the CPU advertises running under one,
// "none" when it does not, and "unknown" off Linux.
func detectVM() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "flags") {
			for _, f := range strings.Fields(line) {
				if f == "hypervisor" {
					return "hypervisor"
				}
			}
			return "none"
		}
	}
	return "unknown"
}

// diff lists the environment fields in which fp and o differ. The git sha
// is not one of them: comparing two versions of the code is the point.
func (fp Fingerprint) diff(o Fingerprint) []string {
	var d []string
	add := func(name string, a, b any) {
		if fmt.Sprint(a) != fmt.Sprint(b) {
			d = append(d, fmt.Sprintf("%s %v vs %v", name, a, b))
		}
	}
	add("nproc", fp.Nproc, o.Nproc)
	add("GOMAXPROCS", fp.GOMAXPROCS, o.GOMAXPROCS)
	add("kernel", fp.Kernel, o.Kernel)
	add("vm", fp.VM, o.VM)
	add("go", fp.GoVersion, o.GoVersion)
	add("netfabric tiers", fp.NetTiers, o.NetTiers)
	add("reader shards", fp.ReaderShards, o.ReaderShards)
	add("env", fp.Env, o.Env)
	return d
}
