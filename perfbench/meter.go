package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// Runtime counters read at phase boundaries. The live-heap figure is read
// right after a forced GC; the others are cumulative and are summed over
// the timed intervals only, so the boundary GCs and the checks run between
// phases are not billed to the workload.
const (
	metricLiveHeap = "/gc/heap/live:bytes"
	metricAllocs   = "/gc/heap/allocs:bytes"
	metricGCAuto   = "/gc/cycles/automatic:gc-cycles"
	metricGCCPU    = "/cpu/classes/gc/total:cpu-seconds"
)

// counters is one reading of the cumulative counters.
type counters struct {
	cpu    float64 // process user+system CPU seconds
	gcCPU  float64
	allocs uint64
	gcAuto uint64
}

// meter times the phases of one replication and accumulates the runtime
// counters over them.
type meter struct {
	samples  []metrics.Sample
	at       counters
	sum      counters
	livePeak uint64
}

func newMeter() *meter {
	return &meter{samples: []metrics.Sample{
		{Name: metricLiveHeap}, {Name: metricAllocs}, {Name: metricGCAuto}, {Name: metricGCCPU},
	}}
}

func (m *meter) read() counters {
	metrics.Read(m.samples)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return counters{
		cpu:    tvSeconds(ru.Utime) + tvSeconds(ru.Stime),
		gcCPU:  m.samples[3].Value.Float64(),
		allocs: m.samples[1].Value.Uint64(),
		gcAuto: m.samples[2].Value.Uint64(),
	}
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// boundary forces a GC and folds the live heap into the peak. The caller
// keeps the finished phase's products referenced across the call.
func (m *meter) boundary() {
	runtime.GC()
	metrics.Read(m.samples[:1])
	if v := m.samples[0].Value.Uint64(); v > m.livePeak {
		m.livePeak = v
	}
}

// begin reads the counters and then starts a timed interval.
func (m *meter) begin() time.Time {
	m.at = m.read()
	return time.Now()
}

// end closes the interval started at t0 and returns its wall seconds.
func (m *meter) end(t0 time.Time) float64 {
	wall := time.Since(t0).Seconds()
	now := m.read()
	m.sum.cpu += now.cpu - m.at.cpu
	m.sum.gcCPU += now.gcCPU - m.at.gcCPU
	m.sum.allocs += now.allocs - m.at.allocs
	m.sum.gcAuto += now.gcAuto - m.at.gcAuto
	return wall
}
