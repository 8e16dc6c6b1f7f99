//go:build perfbenchhook

// This file is compiled into cmd/dwcsd only by perfbench/run.sh, through
// `go build -overlay`, to make the daemon's traced build; the daemon's own
// sources are untouched. When PERFBENCH_CPUPROFILE names a file, the process
// profiles its CPU from start-up for PERFBENCH_PROFILE_SECONDS, then writes
// the profile there and its Go runtime metrics next to it (same path plus
// ".runtime.json").
package main

import (
	"fmt"
	"os"
	"runtime/pprof"
	"strconv"
	"time"

	"repro/perfbench/rtm"
)

func init() {
	path := os.Getenv("PERFBENCH_CPUPROFILE")
	if path == "" {
		return
	}
	secs, err := strconv.ParseFloat(os.Getenv("PERFBENCH_PROFILE_SECONDS"), 64)
	if err != nil || secs <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench hook: PERFBENCH_PROFILE_SECONDS must be a positive number")
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench hook:", err)
		return
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench hook:", err)
		f.Close()
		return
	}
	// The daemon exits from main without a hook to flush on, so the profile
	// covers a fixed span from start-up; perfbench sets it to the run's
	// -dur, which ends before the daemon's 150 ms exit tail does.
	go func() {
		time.Sleep(time.Duration(secs * float64(time.Second)))
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench hook:", err)
			return
		}
		if err := rtm.WriteFile(path + ".runtime.json"); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench hook:", err)
		}
	}()
}
