package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/pprof"
	"testing"
)

// TestMetricsMatchBenchmarkJSON keeps the metric tables of metrics.go and the
// repository's BENCHMARK.json in step.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what string
		got  []metricDef
		want []struct{ Name, Unit string }
	}{{"end_to_end", endToEnd, spec.EndToEnd}, {"per_layer", perLayer, spec.PerLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: metrics.go has %d metrics, BENCHMARK.json %d", c.what, len(c.got), len(c.want))
			continue
		}
		for i, d := range c.got {
			if d.name != c.want[i].Name || d.unit != c.want[i].Unit {
				t.Errorf("%s[%d]: metrics.go %s (%s), BENCHMARK.json %s (%s)",
					c.what, i, d.name, d.unit, c.want[i].Name, c.want[i].Unit)
			}
		}
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		main  string
		want  string
	}{
		{[]string{"repro/internal/sim.(*Engine).Step", "main.main"}, "", "sim"},
		{[]string{"runtime.mallocgc", "runtime.newobject", "repro/internal/dwcs.(*Scheduler).Enqueue", "repro/internal/nic.run"}, "", "dwcs"},
		{[]string{"runtime.futex", "runtime.ready", "runtime.goready", "runtime.send", "runtime.chansend", "runtime.chansend1", "repro/internal/rtos.(*TaskCtx).block"}, "", classSched},
		{[]string{"runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, "", classSched},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "", classGC},
		{[]string{"runtime.memmove", "runtime.gcAssistAlloc", "runtime.mallocgc", "repro/internal/sim.(*Engine).At"}, "", classGC},
		{[]string{"internal/runtime/syscall.Syscall6", "syscall.Syscall", "net.(*conn).Write", "main.soakRun.func5"}, "dwcsd", "dwcsd"},
		{[]string{"repro/internal/proto.FragmentFrame", "main.soakRun.func5"}, "dwcsd", "proto"},
		{[]string{"crypto/sha256.block", "main.digest"}, "", classOther},
	} {
		if got := layerOf(c.stack, c.main); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// TestReadProfile decodes a profile the runtime writes.
func TestReadProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	probeEvent(1, 1<<22)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := readProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	shares := cpuShares(s, "")
	var ticks int64
	for _, x := range s {
		ticks += x.ticks
	}
	if ticks == 0 || shares["sim"] <= 0 {
		t.Fatalf("%d ticks, shares %v: want samples charged to sim", ticks, shares)
	}
}
