package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cost is a snapshot of the process's cumulative CPU time, bytes
// allocated on the heap and completed GC cycles, read from getrusage and
// runtime/metrics. It covers client and server alike: they share the
// process.
type cost struct {
	cpu    time.Duration
	alloc  uint64
	cycles uint64
}

var costSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func sampleCost() cost {
	var c cost
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	s := append([]metrics.Sample(nil), costSamples...)
	metrics.Read(s)
	c.alloc = s[0].Value.Uint64()
	c.cycles = s[1].Value.Uint64()
	return c
}

func (c cost) sub(o cost) cost {
	return cost{cpu: c.cpu - o.cpu, alloc: c.alloc - o.alloc, cycles: c.cycles - o.cycles}
}

// sampleRSS samples the process's resident set size every rssPeriod until
// stop closes and returns the largest sample, in MB.
func sampleRSS(stop <-chan struct{}) float64 {
	t := time.NewTicker(rssPeriod)
	defer t.Stop()
	peak := 0.0
	for {
		if mb, err := rssMB(); err == nil && mb > peak {
			peak = mb
		}
		select {
		case <-stop:
			return peak
		case <-t.C:
		}
	}
}

const rssPeriod = 20 * time.Millisecond

// rssMB reads the current resident set size from /proc/self/statm.
func rssMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, fmt.Errorf("short /proc/self/statm")
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, err
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), nil
}

// resetPeakRSS restarts the process's peak resident set size (VmHWM) from
// its current resident set size.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
