package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// usage is a snapshot of the cumulative resource counters of the process
// serving the requests.
type usage struct {
	cpu      time.Duration // user+sys CPU of the serving process
	allocs   uint64        // heap bytes allocated
	gcCycles uint64        // completed GC cycles
	gcCPU    float64       // CPU seconds of GC work, idle-time marking excluded (as GCCPUFraction counts it)
	// steal and hostTicks are the host's CPU steal and total ticks from
	// /proc/stat.
	steal, hostTicks uint64
}

// minus returns the counters accumulated between o and u.
func (u usage) minus(o usage) usage {
	return usage{
		cpu:       u.cpu - o.cpu,
		allocs:    u.allocs - o.allocs,
		gcCycles:  u.gcCycles - o.gcCycles,
		gcCPU:     u.gcCPU - o.gcCPU,
		steal:     u.steal - o.steal,
		hostTicks: u.hostTicks - o.hostTicks,
	}
}

// plus adds the counters of two disjoint stretches.
func (u usage) plus(o usage) usage {
	return usage{
		cpu:       u.cpu + o.cpu,
		allocs:    u.allocs + o.allocs,
		gcCycles:  u.gcCycles + o.gcCycles,
		gcCPU:     u.gcCPU + o.gcCPU,
		steal:     u.steal + o.steal,
		hostTicks: u.hostTicks + o.hostTicks,
	}
}

// meter reads the usage of the process that serves the requests.
type meter interface {
	read() (usage, error)
}

// selfMeter meters this process: the in-process workloads.
type selfMeter struct{}

func (selfMeter) read() (usage, error) {
	var u usage
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return u, fmt.Errorf("getrusage: %w", err)
	}
	u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/gc/mark/idle:cpu-seconds"},
	}
	metrics.Read(samples)
	for _, s := range samples {
		if s.Value.Kind() == metrics.KindBad {
			return u, fmt.Errorf("runtime metric %s is not supported", s.Name)
		}
	}
	u.allocs = samples[0].Value.Uint64()
	u.gcCycles = samples[1].Value.Uint64()
	u.gcCPU = samples[2].Value.Float64() - samples[3].Value.Float64()
	u.steal, u.hostTicks = hostSteal()
	return u, nil
}

// liveHeap returns the heap bytes still allocated after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// hostSteal returns the steal ticks and all ticks of the host's aggregate
// CPU line in /proc/stat (0, 0 where it cannot be read).
func hostSteal() (steal, total uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal: the later guest
	// fields are already counted in user and nice.
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseUint(fields[i], 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; Linux
// fixes it at 100 on every architecture Go supports.
const clockTicks = 100

// procCPU returns the user+sys CPU time of process pid.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after it start at
	// the state (field 3), so utime and stime (fields 14, 15) are at 11, 12.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}
