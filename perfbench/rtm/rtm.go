// Package rtm reads the Go runtime metrics the benchmark reports for a
// process: allocation volume, GC cycles, scheduling latency, and CPU time
// the process had available but left idle. Both perfbench's child
// processes and the profiling build of dwcsd call it just before they exit.
package rtm

import (
	"encoding/json"
	"math"
	"os"
	"runtime/metrics"
)

// Read returns the process's runtime metrics so far, keyed by the
// benchmark's metric names.
func Read() map[string]float64 {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/sched/latencies:seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	out := map[string]float64{
		"go.alloc_mb":   float64(value(s[0])) / (1 << 20),
		"go.gc_cycles":  float64(value(s[1])),
		"go.idle_cpu_s": s[3].Value.Float64(),
	}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		out["go.sched_latency_us_p99"] = 1e6 * quantile(s[2].Value.Float64Histogram(), 0.99)
	}
	return out
}

func value(s metrics.Sample) uint64 {
	if s.Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s.Value.Uint64()
}

// quantile returns the upper bound of the bucket holding the q-th quantile
// (the lower bound when that bucket is open-ended).
func quantile(h *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(q * float64(total)))
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum >= want {
			if hi := h.Buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return h.Buckets[i]
		}
	}
	return h.Buckets[len(h.Buckets)-1]
}

// WriteFile writes Read's result to path as JSON.
func WriteFile(path string) error {
	b, err := json.Marshal(Read())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
