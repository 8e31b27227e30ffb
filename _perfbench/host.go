package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (q in [0, 1]); it sorts xs in place. An empty slice
// reads 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

// procCPU returns the user plus system CPU seconds the whole process has
// used. The kernel charges hypervisor steal to no thread, so it never
// shows up here.
func procCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)*1e-6
}

// threadCPU returns the CPU seconds of the calling OS thread. Callers pin
// the goroutine with runtime.LockOSThread around a measured interval.
func threadCPU() float64 {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		return math.NaN()
	}
	return float64(ts.Sec) + float64(ts.Nsec)*1e-9
}

// settle lets the rank workers park so the kernel books the CPU time they
// used; rusage only sees another thread's time once it is descheduled.
func settle() { time.Sleep(2 * time.Millisecond) }

// cpuTicks is the host-wide first line of /proc/stat: steal and the sum of
// every field, in clock ticks.
type cpuTicks struct{ steal, total uint64 }

func readTicks() cpuTicks {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuTicks{}
	}
	fields := strings.Fields(sc.Text())
	var t cpuTicks
	for i, s := range fields[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return cpuTicks{}
		}
		// guest and guest_nice (fields 9 and 10) are already inside user
		// and nice.
		if i < 8 {
			t.total += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

func (t cpuTicks) sub(u cpuTicks) cpuTicks {
	return cpuTicks{steal: t.steal - u.steal, total: t.total - u.total}
}

func (t cpuTicks) stealPct() float64 {
	if t.total == 0 {
		return 0
	}
	return 100 * float64(t.steal) / float64(t.total)
}

// liveHeap forces two collections, so sync.Pool victims are dropped too,
// and returns the bytes of live heap objects.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// avx512 reports whether /proc/cpuinfo lists avx512f; the GEMM kernel
// dispatch in mat depends on it.
func avx512() bool {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return false
	}
	return strings.Contains(string(data), " avx512f")
}
