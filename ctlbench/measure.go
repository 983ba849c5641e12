package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minTail is the sample-count rule for reported percentiles: a quantile
// is reported only when at least this many samples lie beyond it, so
// p50 needs 20 samples and p99 needs 1000.
const minTail = 10

// percentile returns the exact nearest-rank q-quantile of samples (which
// it sorts in place) and whether the sample-count rule admits it.
func percentile(samples []float64, q float64) (float64, bool) {
	n := len(samples)
	if n == 0 || q <= 0 || q >= 1 {
		return 0, false
	}
	sort.Float64s(samples)
	rank := int(math.Ceil(q * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	return samples[rank-1], n-rank >= minTail
}

// median is percentile(samples, 0.5) without the sample-count rule, for
// the few repeated set-up and per-layer timings a run takes.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuStat is one reading of the aggregate "cpu" line of /proc/stat.
type cpuStat struct{ total, steal uint64 }

// readCPUStat reads the host's cumulative CPU jiffies; ok is false where
// /proc/stat is unavailable.
func readCPUStat() (cpuStat, bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuStat{}, false
	}
	var s cpuStat
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return cpuStat{}, false
		}
		s.total += n
		if i == 7 { // user nice system idle iowait irq softirq steal
			s.steal = n
		}
	}
	return s, true
}

// stealFrac is the share of host CPU time stolen by the hypervisor
// between two readings.
func stealFrac(a, b cpuStat) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// bytesWritten returns the bytes this process has passed to write
// system calls (/proc/self/io wchar); ok is false where unavailable.
func bytesWritten() (uint64, bool) {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "wchar: "); ok {
			n, err := strconv.ParseUint(strings.TrimSpace(v), 10, 64)
			return n, err == nil
		}
	}
	return 0, false
}

// hostFacts describes the machine a result was measured on.
type hostFacts struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	StealFrac  float64 `json:"steal_frac"`
	PortRange  string  `json:"ephemeral_ports"`
	TWReuse    string  `json:"tcp_tw_reuse"`
}

func readHostFacts(steal float64) hostFacts {
	read := func(path string) string {
		b, err := os.ReadFile(path)
		if err != nil {
			return "unknown"
		}
		return strings.Join(strings.Fields(string(b)), "-")
	}
	return hostFacts{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		StealFrac:  steal,
		PortRange:  read("/proc/sys/net/ipv4/ip_local_port_range"),
		TWReuse:    read("/proc/sys/net/ipv4/tcp_tw_reuse"),
	}
}

// usSince returns the microseconds elapsed since t0.
func usSince(t0 time.Time) float64 {
	return float64(time.Since(t0).Nanoseconds()) / 1e3
}

// heapLiveMiB forces a collection and returns the live heap in MiB. The
// heap a plane retains is the difference of two readings, one while the
// plane is reachable and one after it is dropped.
func heapLiveMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// checkErr collects failed output checks of a run.
type checkErr struct{ msgs []string }

func (c *checkErr) failf(format string, args ...any) {
	if len(c.msgs) < 20 {
		c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
	}
}

func (c *checkErr) ok() bool { return len(c.msgs) == 0 }
