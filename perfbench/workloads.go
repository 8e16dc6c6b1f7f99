package main

// The simulated workloads, as a child process runs them. Each run builds
// its inputs from the seed, runs once, and reports a digest of every
// deterministic artifact plus the exact counts the traced run publishes.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"strings"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/sim"
)

// simRun says how a child runs a simulated workload.
type simRun struct {
	seed    int64
	workers int  // partition / fan-out worker pool; 1 = sequential
	mono    bool // one shared engine instead of partitions (fleet, fleet-obs)
	setup   bool // near-zero horizon: the set-up cost only
}

// simOut is what one run of a simulated workload exports.
type simOut struct {
	artifacts [][2]string // (name, bytes), in a fixed order
	counts    map[string]float64
}

// simWorkload is one simulated workload.
type simWorkload struct {
	name string
	// mono is true when the workload has a monolithic reference mode that
	// must produce the same artifact bytes as its partitioned runs.
	mono bool
	run  func(simRun) simOut
}

// setupHorizon is the simulated length of a set-up-only run: long enough
// to build every card, stream and session and step the first events.
const setupHorizon = 10 * sim.Millisecond

var simWorkloads = map[string]simWorkload{
	"fleet":     {name: "fleet", mono: true, run: runFleet},
	"fleet-obs": {name: "fleet-obs", mono: true, run: runFleetObs},
	"paper":     {name: "paper", run: runPaper},
}

// runFleet: the partitioned 512-card fleet, 2 streams a card, 2 simulated
// seconds. The seed is the topology seed; the fleet's media path draws
// nothing from it, so every seed yields the same artifacts.
func runFleet(r simRun) simOut {
	cfg := cluster.FleetConfig{
		Cards: 512, StreamsPerCard: 2, Dur: 2 * sim.Second,
		Workers: r.workers, Seed: r.seed, Monolithic: r.mono,
	}
	if r.setup {
		cfg.Dur = setupHorizon
	}
	res := cluster.RunFleet(cfg)
	return simOut{
		artifacts: [][2]string{
			{"summary", res.Summary}, {"table", res.Table}, {"pulse", res.Pulse}, {"csv", res.CSV},
		},
		counts: map[string]float64{
			"sim.lbts_rounds":        float64(res.Rounds),
			"cluster.frames_sent":    float64(res.TotalSent),
			"cluster.frames_recv":    float64(res.TotalRecv),
			"cluster.frames_late":    float64(res.TotalLate),
			"cluster.frames_dropped": float64(res.TotalDropped),
		},
	}
}

// runFleetObs: the chaos fleet with in-band scraping, 128 cards × 2
// streams, 6 simulated seconds, the default fault plan drawn from the
// seed, 200 ms scrapes. The control plane is not replicated: with CtrlHA
// set this configuration's monolithic run does not match its partitioned
// runs, so its output could not be checked.
func runFleetObs(r simRun) simOut {
	cfg := cluster.FleetObsConfig{
		FleetChaosConfig: cluster.FleetChaosConfig{
			Cards: 128, StreamsPerCard: 2, Dur: 6 * sim.Second,
			Workers: r.workers, Seed: r.seed, FaultSeed: r.seed, Monolithic: r.mono,
		},
		ScrapeEvery: 200 * sim.Millisecond,
	}
	if r.setup {
		cfg.Dur = setupHorizon
	}
	res := cluster.RunFleetObs(cfg)
	c := res.Chaos
	return simOut{
		artifacts: [][2]string{
			{"chaos-plan", c.Plan}, {"chaos-table", c.Table}, {"chaos-pulse", c.Pulse},
			{"chaos-miglog", c.MigLog}, {"chaos-recovery", c.Recovery},
			{"chaos-violations", c.Violations}, {"chaos-csv", c.CSV}, {"chaos-summary", c.Summary},
			{"rollup", res.Rollup}, {"timeline", res.Timeline}, {"topk", res.TopK},
			{"scrape", res.ScrapeStats}, {"stitched", res.Stitched}, {"summary", res.ObsSummary},
		},
		counts: map[string]float64{
			"sim.lbts_rounds":         float64(c.Rounds),
			"cluster.frames_recv":     float64(c.TotalRecv),
			"cluster.frames_late":     float64(c.TotalLate),
			"cluster.frames_severed":  float64(c.SeveredDrops),
			"cluster.live_migrations": float64(c.LiveMigrations),
			"fleetobs.scrape_reqs":    float64(res.ScrapeReqs),
			"fleetobs.obs_bytes":      float64(res.ObsBytes),
			"fleetobs.sheds":          float64(res.ScrapeSheds),
			"overload.breaches":       float64(res.Breaches),
		},
	}
}

// paperFigureLen is the Figure 6–8 observation length; Figures 9–10 run
// half of it, as reprogen does.
const paperFigureLen = 300 * sim.Second

// runPaper: every paper table, the headline comparison, and Figures 6–10,
// fanned out the way reprogen fans them. The paper's configurations are
// fixed, so the seed is not used. A set-up run builds the figure
// simulations at a near-zero horizon and skips the tables, which have no
// horizon: they are all measured work.
func runPaper(r simRun) simOut {
	experiments.DefaultWorkers = r.workers
	dur := paperFigureLen
	if r.setup {
		dur = setupHorizon
	}
	var (
		host                   *experiments.HostFigures
		ni                     *experiments.NIFigures
		t1, t2, t3, t4, t5, hd *experiments.Result
	)
	jobs := []func(){
		func() { host = experiments.RunHostFigures(dur) },
		func() { ni = experiments.RunNIFigures(dur / 2) },
	}
	if !r.setup {
		jobs = append(jobs,
			func() { t1 = experiments.RunTable1() },
			func() { t2 = experiments.RunTable2() },
			func() { t3 = experiments.RunTable3() },
			func() { t4 = experiments.RunTable4() },
			func() { t5 = experiments.RunTable5() },
			func() { hd = experiments.RunHeadline() })
	}
	experiments.Parallel(jobs...)
	if r.setup {
		return simOut{counts: map[string]float64{}}
	}

	// Figure 6 plots utilisation as a percentage; a sample above 100% is an
	// impossible reading, counted here rather than failed, so that fixing
	// the instrument shows as a change in this count.
	over := 0
	for _, p := range host.Runs[60].Util.Points {
		if p.Value > 100 {
			over++
		}
	}
	var arts [][2]string
	for _, res := range []*experiments.Result{
		t1, t2, t3, t4, t5, hd,
		host.Figure6(), host.Figure7(), host.Figure8(),
		ni.Figure9(), ni.Figure10(), experiments.JitterComparison(host, ni),
	} {
		arts = append(arts, [2]string{res.ID, res.String()})
	}
	return simOut{
		artifacts: arts,
		counts: map[string]float64{
			"hostos.util_samples_over_100": float64(over),
			"host.frames_sent":             float64(host.Runs[0].Sent + host.Runs[45].Sent + host.Runs[60].Sent),
			"host.frames_dropped":          float64(host.Runs[0].Dropped + host.Runs[45].Dropped + host.Runs[60].Dropped),
		},
	}
}

// digest hashes the artifacts in order, length-prefixed so that moving
// bytes from one artifact to the next changes it, and hashes each artifact
// on its own so that a mismatch can be named.
func digest(arts [][2]string) (string, map[string]string) {
	h := sha256.New()
	each := map[string]string{}
	for _, a := range arts {
		fmt.Fprintf(h, "%s %d\n", a[0], len(a[1]))
		h.Write([]byte(a[1]))
		sum := sha256.Sum256([]byte(a[1]))
		each[a[0]] = hex.EncodeToString(sum[:8])
	}
	return hex.EncodeToString(h.Sum(nil))[:16], each
}

// childRecord is the one JSON line a child prints on standard output.
type childRecord struct {
	Digest    string             `json:"digest"`
	Artifacts map[string]string  `json:"artifacts"` // artifact → digest
	Counts    map[string]float64 `json:"counts"`
	Runtime   map[string]float64 `json:"runtime"`
}

// differs names the artifacts whose digests differ between two runs.
func differs(a, b childRecord) string {
	var names []string
	for k, v := range a.Artifacts {
		if b.Artifacts[k] != v {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// runSimChild runs one workload in this process. Goroutines still alive
// after the run are counted as leaked: the rtos layer runs every simulated
// task as a goroutine, and tasks that never exit stay parked.
func runSimChild(w simWorkload, r simRun) childRecord {
	before := runtime.NumGoroutine()
	out := w.run(r)
	out.counts["rtos.goroutines_leaked"] = float64(runtime.NumGoroutine() - before)
	rec := childRecord{Counts: out.counts}
	rec.Digest, rec.Artifacts = digest(out.artifacts)
	return rec
}
