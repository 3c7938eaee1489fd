package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// percentile returns the q-quantile (0..1) of ds by the nearest-rank
// rule, in milliseconds.
func percentile(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	k := int(math.Ceil(q*float64(len(s)))) - 1
	k = min(max(k, 0), len(s)-1)
	return ms(s[k])
}

// beyond counts the samples strictly above the q-quantile.
func beyond(ds []time.Duration, q float64) int {
	p := percentile(ds, q)
	n := 0
	for _, d := range ds {
		if ms(d) > p {
			n++
		}
	}
	return n
}

func medianFloat(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// memSnap is the Go runtime's view of allocation and GC pauses.
type memSnap struct {
	alloc uint64
	pause uint64
}

func readMem() memSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSnap{alloc: m.TotalAlloc, pause: m.PauseTotalNs}
}

// peakRSSMB reads the process's high-water resident set size from
// /proc; where that is unavailable it falls back to the memory the Go
// runtime obtained from the OS.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) >= 2 && fields[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}
