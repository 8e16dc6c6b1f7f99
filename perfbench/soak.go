package main

// The soak workload: the real dwcsd daemon as a child process, pacing 300
// loopback UDP sessions with a flash-crowd arrival and 25% churn. Its
// session plan is seeded inside the daemon, so this workload takes no seed.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"time"
)

const (
	soakDur = 4 * time.Second
	// soakTail is the daemon's fixed wait for the last datagrams after
	// the paced run ends.
	soakTail = 150 * time.Millisecond
	// soakLossTolerance is every session's DWCS loss tolerance (at most 1
	// frame lost in any 2 consecutive). A scheduler that keeps its window
	// constraints drops no more than this share of frames, however loaded
	// the host; the drop ratio below it is a measurement (dwcsd.fail_ratio),
	// not a check.
	soakLossTolerance = 0.5
)

func soakArgs(dir string) []string {
	return []string{"-soak", strconv.Itoa(soakSessions), "-period", "20ms",
		"-dur", soakDur.String(), "-flash", "-churn", "0.25", "-artifacts", dir}
}

// soakRun is one checked soak.
type soakRun struct {
	childRun
	summary map[string]float64
	stages  map[string][]float64 // stage → count, total_ms, mean_us, p50_us, p95_us, max_us
	events  float64              // flight-recorder events recorded
}

// setup is the run's wall time less the paced run and the exit tail.
func (r soakRun) setup() float64 {
	return r.wall - soakDur.Seconds() - soakTail.Seconds()
}

// failRatio is frames dropped by the scheduler or sent and never received,
// over frames due.
func (r soakRun) failRatio() float64 {
	s := r.summary
	due := s["frames_sent"] + s["drops"]
	if due == 0 {
		return 0
	}
	return (s["drops"] + s["frames_sent"] - s["frames_recv"]) / due
}

// soakOnce runs the daemon once with its artifacts in a fresh directory and
// checks what it reports.
func soakOnce(ctx context.Context, o options, n int, bin string, env []string) (soakRun, error) {
	dir := filepath.Join(o.work, fmt.Sprintf("soak-%d", n))
	if err := os.RemoveAll(dir); err != nil {
		return soakRun{}, err
	}
	defer os.RemoveAll(dir)
	cr, err := spawn(ctx, env, bin, soakArgs(dir)...)
	r := soakRun{childRun: cr}
	if err != nil {
		return r, err
	}
	if r.summary, err = parseSoakSummary(cr.stdout); err != nil {
		return r, err
	}
	if r.stages, err = parseStages(filepath.Join(dir, "stages.txt")); err != nil {
		return r, err
	}
	if r.events, err = parseRecorded(filepath.Join(dir, "incidents.txt")); err != nil {
		return r, err
	}
	return r, checkSoak(r)
}

// checkSoak checks a soak's output: every planned session set up (the
// target plus one replacement per churned session), no frame received
// that was not sent, no more frames dropped than the sessions' loss
// tolerance allows, and frames in every stage the daemon traces.
func checkSoak(r soakRun) error {
	s := r.summary
	switch {
	case s["target"] != soakSessions:
		return fmt.Errorf("soak: target %v sessions, want %d", s["target"], soakSessions)
	case s["setups"] != s["target"]+s["teardowns"]:
		return fmt.Errorf("soak: %v setups for %v sessions and %v teardowns", s["setups"], s["target"], s["teardowns"])
	case s["frames_sent"] <= 0 || s["frames_recv"] > s["frames_sent"]:
		return fmt.Errorf("soak: %v frames received of %v sent", s["frames_recv"], s["frames_sent"])
	case s["drop_ratio"] > soakLossTolerance:
		return fmt.Errorf("soak: drop ratio %v above the sessions' loss tolerance %v", s["drop_ratio"], soakLossTolerance)
	}
	for _, st := range []string{"queue", "tx", "wire"} {
		if row := r.stages[st]; len(row) < 6 || row[0] <= 0 {
			return fmt.Errorf("soak: stages.txt has no %s frames", st)
		}
	}
	return nil
}

var soakSummaryRE = regexp.MustCompile(`(\w+)=([0-9.eE+-]+)`)

func parseSoakSummary(stdout []byte) (map[string]float64, error) {
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	for sc.Scan() {
		line, ok := strings.CutPrefix(sc.Text(), "soak summary:")
		if !ok {
			continue
		}
		out := map[string]float64{}
		for _, m := range soakSummaryRE.FindAllStringSubmatch(line, -1) {
			v, err := strconv.ParseFloat(m[2], 64)
			if err != nil {
				return nil, fmt.Errorf("soak summary %s: %w", m[1], err)
			}
			out[m[1]] = v
		}
		return out, nil
	}
	return nil, fmt.Errorf("dwcsd printed no soak summary line")
}

// parseStages reads the per-stage latency table of stages.txt.
func parseStages(path string) (map[string][]float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := map[string][]float64{}
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) != 7 {
			continue
		}
		var row []float64
		for _, s := range f[1:] {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				row = nil
				break
			}
			row = append(row, v)
		}
		if row != nil {
			out[f[0]] = row
		}
	}
	return out, nil
}

var recordedRE = regexp.MustCompile(`(\d+) recorded`)

// parseRecorded reads the flight recorder's event count from the header of
// incidents.txt.
func parseRecorded(path string) (float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	m := recordedRE.FindSubmatch(b)
	if m == nil {
		return 0, fmt.Errorf("%s: no recorded-events count", path)
	}
	return strconv.ParseFloat(string(m[1]), 64)
}

// benchSoak runs the soak workload: untraced runs for the end-to-end
// metrics, or profiled runs of the daemon's traced build for the
// per-layer metrics.
func benchSoak(ctx context.Context, o options) (*outcome, error) {
	oc := &outcome{values: map[string]float64{}}
	if o.dwcsd == "" || o.dwcsdProfiled == "" {
		return nil, fmt.Errorf("-dwcsd and -dwcsd-profiled are required; run perfbench/run.sh")
	}
	fmt.Println("soak: the session plan is seeded inside dwcsd; -seed is not used")
	n := 0
	one := func(bin string, env []string) (soakRun, bool) {
		n++
		oc.attempted++
		r, err := soakOnce(ctx, o, n, bin, env)
		if err != nil {
			oc.failed++
			fmt.Fprintln(os.Stderr, "run failed:", err)
			return r, false
		}
		fmt.Fprintf(os.Stderr, "soak %d: wall %.3f s, cpu %.3f s, sent %v, drops %v, jitter p50 %v ms\n",
			n, r.wall, r.cpu, r.summary["frames_sent"], r.summary["drops"], r.summary["jitter_ms_p50"])
		return r, true
	}

	if !o.trace {
		var walls, cpus, rss, setups, jitter, fails []float64
		timedLoop(ctx, o, minRuns, func() {
			if r, ok := one(o.dwcsd, nil); ok {
				walls, cpus, rss = append(walls, r.wall), append(cpus, r.cpu), append(rss, r.rssMB)
				setups = append(setups, r.setup())
				jitter, fails = append(jitter, r.summary["jitter_ms_p50"]), append(fails, r.failRatio())
			}
		})
		oc.values["setup_s"] = median(setups)
		oc.values["wall_s"] = median(walls)
		oc.values["cpu_s"] = median(cpus)
		oc.values["peak_rss_mb"] = median(rss)
		fmt.Printf("timed runs: %d ok, wall_s median %.4f, cpu_s median %.4f, peak_rss_mb median %.1f, setup_s median %.4f\n",
			len(walls), oc.values["wall_s"], oc.values["cpu_s"], oc.values["peak_rss_mb"], oc.values["setup_s"])
		fmt.Printf("soak quality: jitter_ms_p50 median %.3f, fail_ratio median %.4f (frames dropped or lost over frames due)\n",
			median(jitter), median(fails))
		return oc, nil
	}

	// Traced: one untraced run as the overhead baseline, then profiled runs.
	var plain, traced []float64
	if r, ok := one(o.dwcsd, nil); ok {
		plain = append(plain, r.wall)
	}
	var prof profileTotals
	var rts, stats []map[string]float64
	timedLoop(ctx, o, 2, func() {
		path := filepath.Join(o.work, fmt.Sprintf("soak-%d.pprof", n+1))
		defer os.Remove(path)
		defer os.Remove(path + ".runtime.json")
		r, ok := one(o.dwcsdProfiled, []string{
			"PERFBENCH_CPUPROFILE=" + path,
			"PERFBENCH_PROFILE_SECONDS=" + strconv.FormatFloat(soakDur.Seconds(), 'f', -1, 64),
		})
		if !ok {
			return
		}
		if err := prof.add(path, "dwcsd"); err != nil {
			oc.fail("profile: %v", err)
			return
		}
		var rt map[string]float64
		b, err := os.ReadFile(path + ".runtime.json")
		if err == nil {
			err = json.Unmarshal(b, &rt)
		}
		if err != nil {
			oc.fail("runtime metrics of the profiled daemon: %v", err)
			return
		}
		traced = append(traced, r.wall)
		rts = append(rts, rt)
		stats = append(stats, map[string]float64{
			"dwcsd.queue_us_p50":       r.stages["queue"][3],
			"dwcsd.tx_us_mean":         r.stages["tx"][2],
			"dwcsd.tx_us_p95":          r.stages["tx"][4],
			"dwcsd.wire_us_p50":        r.stages["wire"][3],
			"dwcsd.wire_us_p95":        r.stages["wire"][4],
			"dwcsd.frames_sent":        r.summary["frames_sent"],
			"dwcsd.setups":             r.summary["setups"],
			"dwcsd.jitter_ms_p50":      r.summary["jitter_ms_p50"],
			"dwcsd.fail_ratio":         r.failRatio(),
			"blackbox.events_recorded": r.events,
		})
	})
	prof.report(oc.values)
	for _, m := range []map[string]float64{medianMaps(rts), medianMaps(stats), runProbes(o.seed)} {
		for k, v := range m {
			oc.values[k] = v
		}
	}
	oc.values["trace.overhead_pct"] = overheadPct(traced, plain)
	return oc, nil
}
