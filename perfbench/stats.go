package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi || math.IsInf(s[hi], 1) {
		return s[hi]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// geomean returns the geometric mean of the positive values in xs.
func geomean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMiB returns the process's high-water resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// samples collects named series of measurements.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

func (s samples) median(name string) float64 { return median(s[name]) }

// Set-up is repeated at least minSetups times and until setupBudget has
// been spent (at most maxSetups times), so that its median is steady: a
// slow set-up is still timed 7 times, a quick one dozens of times.
const (
	minSetups   = 7
	maxSetups   = 50
	setupBudget = time.Second
)

// repeatSetup builds an environment repeatedly, closing all but the last
// (which it returns), and returns each build's duration in seconds.
func repeatSetup[E any](build func() (E, error), close func(E)) (E, []float64, error) {
	var env E
	var secs []float64
	var spent time.Duration
	for i := 0; i < maxSetups && (i < minSetups || spent < setupBudget); i++ {
		if i > 0 {
			// Drop the last environment before building the next, so the
			// peak RSS never holds two of them.
			close(env)
			var zero E
			env = zero
			runtime.GC()
		}
		t0 := time.Now()
		e, err := build()
		if err != nil {
			var zero E
			return zero, nil, err
		}
		d := time.Since(t0)
		spent += d
		secs = append(secs, d.Seconds())
		env = e
	}
	return env, secs, nil
}

// cpuTicks returns the machine's steal and total CPU time in clock ticks
// from /proc/stat (zeros where that is unavailable).
func cpuTicks() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
