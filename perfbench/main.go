// Command perfbench is the repository's benchmark program. It runs one
// workload, times every run in a fresh child process, checks each run's
// output, and prints the result as one JSON line:
//
//	perfbench -workload fleet -seed 1 -seconds 20 -trace 0
//
// With -trace 0 it reports the end-to-end metrics (set-up time, wall time,
// CPU time, peak memory); with -trace 1 it reports the per-layer metrics:
// a CPU profile of the runs charged to the repository's modules, Go runtime
// metrics, exact counts from the runs' results, dwcsd's own stage table,
// and probes timing calls into the hottest layers. perfbench/run.sh builds
// perfbench and the daemon and is the entry point; README.md in this
// directory describes the workloads and metrics.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/perfbench/rtm"
)

const (
	// setupRuns set-up-only children are timed per untraced run; setup_s
	// is their median.
	setupRuns = 11
	// minRuns timed children are made even when one outlasts -seconds.
	minRuns = 3
	// childTimeout bounds one child process.
	childTimeout = 60 * time.Second
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool

	self          string // this executable, re-run as the child
	dwcsd         string
	dwcsdProfiled string
	work          string // work directory for profiles and soak artifacts
}

// result is the JSON line perfbench prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome collects a workload's runs before they become a result.
type outcome struct {
	attempted, failed int
	checks            []string // output checks that failed
	values            map[string]float64
}

func (oc *outcome) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	oc.checks = append(oc.checks, msg)
	fmt.Println("check failed:", msg)
}

func main() {
	var (
		o          options
		trace      int
		child      string
		workers    int
		mono       bool
		setup      bool
		cpuprofile string
	)
	flag.StringVar(&o.workload, "workload", "", "workload: fleet, fleet-obs, paper, or soak")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed (fleet and fleet-obs; paper and soak have fixed inputs)")
	flag.Float64Var(&o.seconds, "seconds", 20, "how long the timed runs go on")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.dwcsd, "dwcsd", "", "dwcsd binary (soak)")
	flag.StringVar(&o.dwcsdProfiled, "dwcsd-profiled", "", "dwcsd binary built with perfbench/hook (traced soak)")
	flag.StringVar(&o.work, "work", "", "work directory for profiles and soak artifacts")
	flag.StringVar(&child, "child", "", "internal: run this simulated workload once in this process")
	flag.IntVar(&workers, "workers", 1, "internal (child): worker pool")
	flag.BoolVar(&mono, "mono", false, "internal (child): monolithic reference engine")
	flag.BoolVar(&setup, "setup", false, "internal (child): set-up only, near-zero horizon")
	flag.StringVar(&cpuprofile, "cpuprofile", "", "internal (child): write a CPU profile here")
	flag.Parse()

	if child != "" {
		if err := runChild(child, simRun{seed: o.seed, workers: workers, mono: mono, setup: setup}, cpuprofile); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(1)
		}
		return
	}

	o.trace = trace == 1
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func runChild(name string, r simRun, profile string) error {
	w, ok := simWorkloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	var f *os.File
	if profile != "" {
		var err error
		if f, err = os.Create(profile); err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
	}
	rec := runSimChild(w, r)
	if f != nil {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			return err
		}
	}
	rec.Runtime = rtm.Read()
	return json.NewEncoder(os.Stdout).Encode(rec)
}

func run(o options) (*result, error) {
	if o.seconds <= 0 {
		return nil, errors.New("-seconds must be positive")
	}
	if o.work == "" {
		return nil, errors.New("-work is required; run perfbench/run.sh")
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	o.self = self
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return nil, err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	printMachine()
	mode := "untraced"
	if o.trace {
		mode = "traced"
	}
	fmt.Printf("workload %s, seed %d, %s, %.0f s of timed runs\n", o.workload, o.seed, mode, o.seconds)

	var oc *outcome
	if w, ok := simWorkloads[o.workload]; ok {
		oc, err = benchSim(ctx, o, w)
	} else if o.workload == "soak" {
		oc, err = benchSoak(ctx, o)
	} else {
		return nil, fmt.Errorf("unknown workload %q (want fleet, fleet-obs, paper, or soak)", o.workload)
	}
	if err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, errors.New("interrupted")
	}

	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	res := &result{
		Correct:   len(oc.checks) == 0 && oc.failed == 0,
		Attempted: oc.attempted,
		Failed:    oc.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: oc.values[d.name], Unit: d.unit}
	}
	fmt.Printf("runs: attempted=%d failed=%d fail_ratio=%.4f correct=%v\n",
		res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)), res.Correct)
	return res, nil
}

// printMachine prints the machine record every result is measured on.
func printMachine() {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	fmt.Printf("machine: cores=%d gomaxprocs=%d go=%s os=%s/%s cpu=%q\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, model)
}

// childRun is one finished child process as the parent measured it.
type childRun struct {
	wall, cpu, rssMB float64
	stdout           []byte
}

// spawn runs one child to completion and measures it: wall time from
// start to exit, and the user+system CPU time and peak RSS the kernel
// accounts to it.
func spawn(ctx context.Context, env []string, bin string, args ...string) (childRun, error) {
	cctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	cmd := exec.CommandContext(cctx, bin, args...)
	cmd.Env = append(os.Environ(), env...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	cr := childRun{wall: time.Since(start).Seconds(), stdout: stdout.Bytes()}
	if ps := cmd.ProcessState; ps != nil {
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			cr.cpu = seconds(ru.Utime) + seconds(ru.Stime)
			cr.rssMB = float64(ru.Maxrss) / 1024 // kilobytes on Linux
		}
	}
	if err != nil {
		msg := strings.TrimSpace(stderr.String())
		if len(msg) > 2000 {
			msg = "…" + msg[len(msg)-2000:]
		}
		return cr, fmt.Errorf("%s %s: %v\n%s", filepath.Base(bin), strings.Join(args, " "), err, msg)
	}
	return cr, nil
}

func seconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// timedLoop calls one until -seconds have passed since the loop began, and
// at least atLeast times. It stops early when ctx is cancelled.
func timedLoop(ctx context.Context, o options, atLeast int, one func()) {
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for n := 0; ctx.Err() == nil && (n < atLeast || time.Now().Before(deadline)); n++ {
		one()
	}
}

// benchSim runs a simulated workload: a sequential reference run whose
// artifact digest every other run must match (and, for the fleets, a
// monolithic run that must match it too), then the timed or traced runs.
func benchSim(ctx context.Context, o options, w simWorkload) (*outcome, error) {
	oc := &outcome{values: map[string]float64{}}
	call := func(extra ...string) (childRun, childRecord, error) {
		var rec childRecord
		args := append([]string{"-child", w.name, "-seed", strconv.FormatInt(o.seed, 10)}, extra...)
		cr, err := spawn(ctx, nil, o.self, args...)
		if err != nil {
			return cr, rec, err
		}
		lines := bytes.Split(bytes.TrimSpace(cr.stdout), []byte("\n"))
		if err := json.Unmarshal(lines[len(lines)-1], &rec); err != nil {
			return cr, rec, fmt.Errorf("child output: %w", err)
		}
		return cr, rec, nil
	}

	_, ref, err := call("-workers", "1")
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	fmt.Printf("reference run (workers=1): digest %s\n", ref.Digest)
	fmt.Printf("simulated counts: %s\n", formatCounts(ref.Counts))
	if w.mono {
		_, m, err := call("-mono")
		if err != nil {
			return nil, fmt.Errorf("monolithic run: %w", err)
		}
		if m.Digest != ref.Digest {
			oc.fail("monolithic run digest %s differs from the reference %s in: %s", m.Digest, ref.Digest, differs(ref, m))
		} else {
			fmt.Println("monolithic run matches the reference")
		}
	}

	workers := strconv.Itoa(runtime.NumCPU())
	// measured runs one timed child and checks its digest; it returns
	// false when the run failed.
	measured := func(extra ...string) (childRun, childRecord, bool) {
		oc.attempted++
		cr, rec, err := call(append([]string{"-workers", workers}, extra...)...)
		switch {
		case err != nil:
			oc.failed++
			fmt.Fprintln(os.Stderr, "run failed:", err)
			return cr, rec, false
		case rec.Digest != ref.Digest:
			oc.failed++
			fmt.Fprintf(os.Stderr, "run failed: digest %s differs from the reference %s in: %s\n", rec.Digest, ref.Digest, differs(ref, rec))
			return cr, rec, false
		}
		fmt.Fprintf(os.Stderr, "run %d: wall %.3f s, cpu %.3f s, rss %.1f MB\n", oc.attempted, cr.wall, cr.cpu, cr.rssMB)
		return cr, rec, true
	}

	if !o.trace {
		var setups []float64
		for i := 0; i < setupRuns; i++ {
			cr, _, err := call("-workers", workers, "-setup")
			if err != nil {
				return nil, fmt.Errorf("set-up run: %w", err)
			}
			setups = append(setups, cr.wall)
		}
		var walls, cpus, rss []float64
		timedLoop(ctx, o, minRuns, func() {
			if cr, _, ok := measured(); ok {
				walls, cpus, rss = append(walls, cr.wall), append(cpus, cr.cpu), append(rss, cr.rssMB)
			}
		})
		oc.values["setup_s"] = median(setups)
		oc.values["wall_s"] = median(walls)
		oc.values["cpu_s"] = median(cpus)
		oc.values["peak_rss_mb"] = median(rss)
		fmt.Printf("timed runs: %d ok, wall_s median %.4f, cpu_s median %.4f, peak_rss_mb median %.1f; set-up runs: %d, median %.4f s\n",
			len(walls), oc.values["wall_s"], oc.values["cpu_s"], oc.values["peak_rss_mb"], len(setups), oc.values["setup_s"])
		return oc, nil
	}

	// Traced: two untraced runs first, as the overhead baseline, then
	// profiled runs for the rest of the time.
	var plain, traced []float64
	for i := 0; i < 2; i++ {
		if cr, _, ok := measured(); ok {
			plain = append(plain, cr.wall)
		}
	}
	var prof profileTotals
	var rts []map[string]float64
	i := 0
	timedLoop(ctx, o, 2, func() {
		i++
		path := filepath.Join(o.work, fmt.Sprintf("%s-%d.pprof", w.name, i))
		defer os.Remove(path)
		cr, rec, ok := measured("-cpuprofile", path)
		if !ok {
			return
		}
		if err := prof.add(path, ""); err != nil {
			oc.fail("profile: %v", err)
			return
		}
		traced = append(traced, cr.wall)
		rts = append(rts, rec.Runtime)
	})
	prof.report(oc.values)
	for _, m := range []map[string]float64{medianMaps(rts), ref.Counts, runProbes(o.seed)} {
		for k, v := range m {
			oc.values[k] = v
		}
	}
	oc.values["trace.overhead_pct"] = overheadPct(traced, plain)
	return oc, nil
}

// profileTotals accumulates profile samples over the traced runs.
type profileTotals struct {
	runs    int
	samples int64 // profiler ticks
	cpu     map[string]float64
}

func (p *profileTotals) add(path, mainLayer string) error {
	s, err := readProfile(path)
	if err != nil {
		return err
	}
	if p.cpu == nil {
		p.cpu = map[string]float64{}
	}
	for k, v := range cpuShares(s, mainLayer) {
		p.cpu[k] += v
	}
	p.runs++
	for _, x := range s {
		p.samples += x.ticks
	}
	return nil
}

// report records each class's CPU seconds per run and the share of
// profiled CPU charged to a named layer (everything but "other").
func (p *profileTotals) report(values map[string]float64) {
	known := map[string]bool{}
	for _, l := range profiledLayers {
		known[l] = true
	}
	for k, v := range p.cpu {
		if !known[k] { // a module added after the metric list was written
			delete(p.cpu, k)
			p.cpu[classOther] += v
		}
	}
	var total float64
	for _, v := range p.cpu {
		total += v
	}
	for k, v := range p.cpu {
		values[k+".cpu_s"] = v / float64(max(p.runs, 1))
	}
	values["profile.samples"] = float64(p.samples)
	if total > 0 {
		values["profile.attributed_pct"] = 100 * (total - p.cpu[classOther]) / total
	}
	var named []string
	for k := range p.cpu {
		named = append(named, k)
	}
	sort.Slice(named, func(i, j int) bool { return p.cpu[named[i]] > p.cpu[named[j]] })
	var b strings.Builder
	for _, k := range named {
		if share := 100 * p.cpu[k] / max(total, 1e-9); share >= 0.5 {
			fmt.Fprintf(&b, " %s=%.1f%%", k, share)
		}
	}
	fmt.Printf("profile: %d runs, %d samples, %.2f CPU-s;%s\n", p.runs, p.samples, total, b.String())
}

func overheadPct(traced, plain []float64) float64 {
	if len(traced) == 0 || len(plain) == 0 {
		return 0
	}
	return 100 * (median(traced)/median(plain) - 1)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// medianMaps takes the per-key median over maps of measurements.
func medianMaps(ms []map[string]float64) map[string]float64 {
	all := map[string][]float64{}
	for _, m := range ms {
		for k, v := range m {
			all[k] = append(all[k], v)
		}
	}
	out := map[string]float64{}
	for k, v := range all {
		out[k] = median(v)
	}
	return out
}

func formatCounts(c map[string]float64) string {
	var keys []string
	for k := range c {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%s", k, strconv.FormatFloat(c[k], 'f', -1, 64))
	}
	return b.String()
}
