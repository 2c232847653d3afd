package main

import (
	"bufio"
	"bytes"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTimes is one reading of the aggregate "cpu" line of /proc/stat, in
// clock ticks. ok is false when the file or the line could not be read;
// every factor computed from such a reading is 1.
type cpuTimes struct {
	busy  uint64 // user + nice + system + irq + softirq
	steal uint64 // 0 when the kernel does not report the column
	ok    bool
}

// parseProcStat extracts the aggregate cpu line from the contents of
// /proc/stat. The columns are user nice system idle iowait irq softirq
// steal guest guest_nice; kernels before 2.6.11 stop before steal.
func parseProcStat(data []byte) cpuTimes {
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 5 || fields[0] != "cpu" {
			continue
		}
		col := make([]uint64, len(fields)-1)
		for i, f := range fields[1:] {
			v, err := strconv.ParseUint(f, 10, 64)
			if err != nil {
				return cpuTimes{}
			}
			col[i] = v
		}
		t := cpuTimes{busy: col[0] + col[1] + col[2], ok: true}
		if len(col) > 6 {
			t.busy += col[5] + col[6]
		}
		if len(col) > 7 {
			t.steal = col[7]
		}
		return t
	}
	return cpuTimes{}
}

// stealFactor is f = busy / (busy + steal) between two readings: the
// share of the CPU time the guest wanted that the hypervisor granted.
// It is 1 when either reading is missing, when nothing ran, or when a
// counter went backwards (a wrap) — never a guess.
func stealFactor(a, b cpuTimes) float64 {
	if !a.ok || !b.ok || b.busy < a.busy || b.steal < a.steal {
		return 1
	}
	busy, steal := b.busy-a.busy, b.steal-a.steal
	if busy+steal == 0 {
		return 1
	}
	return float64(busy) / float64(busy+steal)
}

// cpuClock reads the host's cpu counters from path; tests point it at
// canned or missing files.
type cpuClock struct{ path string }

func (c cpuClock) read() cpuTimes {
	data, err := os.ReadFile(c.path)
	if err != nil {
		return cpuTimes{}
	}
	return parseProcStat(data)
}

// interval is a stretch of wall time with the steal factor observed over
// it; adjusted() is the time the work would have taken on a host that
// granted every cycle it was asked for.
type interval struct {
	wall time.Duration
	f    float64
}

func (iv interval) adjusted() time.Duration {
	return time.Duration(float64(iv.wall) * iv.f)
}

// stopwatch measures one interval on the steal-adjusted clock.
type stopwatch struct {
	clock cpuClock
	t0    time.Time
	c0    cpuTimes
}

func (c cpuClock) start() stopwatch {
	return stopwatch{clock: c, t0: time.Now(), c0: c.read()}
}

func (s stopwatch) stop() interval {
	wall := time.Since(s.t0)
	return interval{wall: wall, f: stealFactor(s.c0, s.clock.read())}
}

// peakRSSMiB returns the process's VmHWM in MiB, or 0 when
// /proc/self/status does not report it.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				return 0
			}
			kb, err := strconv.ParseFloat(fields[0], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// processCPU returns the user + system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
