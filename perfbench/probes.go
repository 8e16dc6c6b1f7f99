package main

// Probes: short timed loops over the public functions of the hottest
// layers, with inputs sized from the workloads, so a change to one layer
// shows as a per-call cost of its own as well as in the profile shares.

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/internal/blackbox"
	"repro/internal/dwcs"
	"repro/internal/fixed"
	"repro/internal/proto"
	"repro/internal/rtos"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Workload sizes the probes copy.
const (
	// fleetHeapDepth is the mean number of pending events per card
	// partition in the fleet workload (4.6, sampled every 50 ms of a
	// 2-simulated-second 512-card run).
	fleetHeapDepth = 5
	fleetCards     = 512
	fleetLookahead = 5 * sim.Millisecond
	soakSessions   = 300
	soakPeriod     = 20 * sim.Millisecond
)

// probeReps timed repetitions of each probe are made; the median is
// reported. Each repetition is sized to take about probeRepTime.
const (
	probeReps    = 5
	probeRepTime = 40 * time.Millisecond
)

// probe is one timed loop. run builds its inputs, performs n operations,
// and returns how many units of the probe's metric they amount to (usually
// n) and how long they took, set-up excluded.
type probe struct {
	name  string
	scale float64 // nanoseconds per reported unit
	run   func(n int) (units float64, el time.Duration)
}

// measure calibrates n to probeRepTime, then returns the median over
// probeReps repetitions of elapsed time per unit.
func (p probe) measure() float64 {
	n := 1
	for {
		if _, el := p.run(n); el >= probeRepTime/4 || n >= 1<<26 {
			n = int(float64(n) * float64(probeRepTime) / float64(max(el, time.Microsecond)))
			break
		}
		n *= 4
	}
	n = max(n, 1)
	per := make([]float64, probeReps)
	for i := range per {
		runtime.GC()
		units, el := p.run(n)
		per[i] = float64(el.Nanoseconds()) / units / p.scale
	}
	sort.Float64s(per)
	return per[len(per)/2]
}

func probes(seed int64) []probe {
	return []probe{
		{"sim.probe.event_ns", 1, func(n int) (float64, time.Duration) { return probeEvent(seed, n) }},
		{"sim.probe.lbts_round_us", 1e3, func(n int) (float64, time.Duration) { return probeLBTS(seed, n) }},
		{"rtos.probe.switch_ns", 1, probeSwitch},
		{"dwcs.probe.decision_ns", 1, func(n int) (float64, time.Duration) { return probeDecision(seed, n) }},
		{"proto.probe.frame_ns", 1, probeFrame},
		{"telemetry.probe.span_ns", 1, probeSpan},
		{"blackbox.probe.record_ns", 1, probeRecord},
	}
}

// runProbes measures every probe.
func runProbes(seed int64) map[string]float64 {
	out := map[string]float64{}
	for _, p := range probes(seed) {
		out[p.name] = p.measure()
	}
	return out
}

// probeEvent: Engine.At + Engine.Step at the fleet's per-partition heap
// depth; each operation schedules one event and fires the earliest.
func probeEvent(seed int64, n int) (float64, time.Duration) {
	rng := rand.New(rand.NewSource(seed))
	offs := make([]sim.Time, 1024)
	for i := range offs {
		offs[i] = sim.Time(1 + rng.Int63n(int64(40*sim.Millisecond)))
	}
	eng := sim.NewEngine(seed)
	noop := func() {}
	for i := 0; i < fleetHeapDepth; i++ {
		eng.At(offs[i], noop)
	}
	t := time.Now()
	for i := 0; i < n; i++ {
		eng.At(eng.Now()+offs[i&1023], noop)
		eng.Step()
	}
	return float64(n), time.Since(t)
}

// probeLBTS: Topology.RunUntil over the fleet's partition graph — a media
// ring between 512 card partitions plus a controller partition linked both
// ways to every card, all at the fleet's 5 ms lookahead — with each card
// firing a local event every 20 ms and forwarding a message to the next
// card every 40 ms. n is the number of lookahead periods to run; the unit
// is one synchronization round.
func probeLBTS(seed int64, n int) (float64, time.Duration) {
	topo := sim.NewTopology(seed)
	topo.Workers = runtime.NumCPU()
	ctrl := topo.AddPartition("dvcm")
	parts := make([]*sim.Partition, fleetCards)
	for i := range parts {
		parts[i] = topo.AddPartition(fmt.Sprintf("card%03d", i))
	}
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	noop := func() {}
	for i, p := range parts {
		next := parts[(i+1)%len(parts)]
		must(topo.Connect(p, next, fleetLookahead))
		must(topo.Connect(ctrl, p, fleetLookahead))
		must(topo.Connect(p, ctrl, fleetLookahead))
		p.Eng().Every(20*sim.Millisecond, noop)
		p := p
		p.Eng().Every(40*sim.Millisecond, func() { p.Send(next, fleetLookahead, noop) })
	}
	t := time.Now()
	topo.RunUntil(sim.Time(n) * fleetLookahead)
	el := time.Since(t)
	rounds := topo.Rounds
	topo.Drain()
	return float64(max(rounds, 1)), el
}

// probeSwitch: two RTOS tasks ping-ponging through a pair of semaphores,
// one of them sleeping a simulated microsecond per round; the unit is one
// task switch as the kernel counts them.
func probeSwitch(n int) (float64, time.Duration) {
	eng := sim.NewEngine(1)
	k := rtos.NewKernel(eng, "probe", 0)
	a, b := rtos.NewSemaphore(k, "a", 0), rtos.NewSemaphore(k, "b", 0)
	rounds := max(n/2, 1)
	k.Spawn("ping", 1, func(tc *rtos.TaskCtx) {
		for i := 0; i < rounds; i++ {
			b.Give()
			a.Take(tc)
		}
	})
	k.Spawn("pong", 1, func(tc *rtos.TaskCtx) {
		for i := 0; i < rounds; i++ {
			b.Take(tc)
			tc.Sleep(sim.Microsecond)
			a.Give()
		}
	})
	t := time.Now()
	eng.Run()
	return float64(max(k.Switches, 1)), time.Since(t)
}

// probeDecision: one Enqueue plus one Schedule on a Heaps-selector DWCS
// scheduler holding the soak's 300 streams (period 20 ms, loss tolerance
// 1/2, 16-frame rings), with the soak's 25% churn rate: one stream torn
// down and replaced every 800 decisions (about every 2.7 periods).
func probeDecision(seed int64, n int) (float64, time.Duration) {
	var now sim.Time
	s := dwcs.New(dwcs.Config{
		Now:           func() sim.Time { return now },
		Selector:      dwcs.Heaps,
		EligibleEarly: soakPeriod / 4,
	})
	spec := func(id int) dwcs.StreamSpec {
		return dwcs.StreamSpec{ID: id, Name: fmt.Sprintf("s%d", id), Period: soakPeriod,
			Loss: fixed.New(1, 2), Lossy: true, BufCap: 16}
	}
	ids := make([]int, soakSessions)
	for i := range ids {
		ids[i] = i
		if err := s.AddStream(spec(i)); err != nil {
			panic(err)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	nextID := soakSessions
	step := soakPeriod / soakSessions
	t := time.Now()
	for i := 0; i < n; i++ {
		now += step
		if i%800 == 799 {
			j := rng.Intn(len(ids))
			if err := s.RemoveStream(ids[j]); err != nil {
				panic(err)
			}
			ids[j] = nextID
			if err := s.AddStream(spec(nextID)); err != nil {
				panic(err)
			}
			nextID++
		}
		_ = s.Enqueue(ids[i%len(ids)], dwcs.Packet{Bytes: 256 + int64(i%4)*128})
		s.Schedule()
	}
	return float64(n), time.Since(t)
}

// probeFrame: FragmentFrame and Reassembler.Ingest of the soak's frames
// (256–640 bytes); the unit is one frame.
func probeFrame(n int) (float64, time.Duration) {
	payload := make([]byte, 1024)
	rand.New(rand.NewSource(2)).Read(payload)
	got := 0
	r := proto.NewReassembler(func(uint32, uint32, []byte) { got++ })
	t := time.Now()
	for i := 0; i < n; i++ {
		for _, frag := range proto.FragmentFrame(uint32(i%soakSessions), uint32(i), payload[:256+(i%4)*128]) {
			if err := r.Ingest(frag); err != nil {
				panic(err)
			}
		}
	}
	el := time.Since(t)
	if got != n {
		panic(fmt.Sprintf("proto probe: %d of %d frames reassembled", got, n))
	}
	return float64(n), el
}

// probeSpan: Registry.Span recording one tx-stage segment.
func probeSpan(n int) (float64, time.Duration) {
	reg := telemetry.New()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		t := sim.Time(i) * sim.Microsecond
		reg.Span(i%soakSessions, int64(i), telemetry.StageTx, "probe", t, t+7*sim.Microsecond)
	}
	return float64(n), time.Since(t0)
}

// probeRecord: Recorder.Record into a default 256-event ring.
func probeRecord(n int) (float64, time.Duration) {
	rec, err := blackbox.New(blackbox.Config{Name: "probe"})
	if err != nil {
		panic(err)
	}
	t := time.Now()
	for i := 0; i < n; i++ {
		rec.Record(blackbox.Event{At: sim.Time(i), Kind: blackbox.KindDecision,
			Stream: i % soakSessions, Seq: int64(i), A: 512})
	}
	return float64(n), time.Since(t)
}
