package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"infoslicing/internal/overlay"
	"infoslicing/internal/relay"
	"infoslicing/internal/simnet"
	"infoslicing/internal/source"
	"infoslicing/internal/wire"
)

// churn-sim: the unreliable overlay of the paper's title, in virtual time.
// Two flows (L=3, d=2, d'=3) run over a simnet universe whose every link
// loses 1% of packets and adds jitter; relays run the live control plane
// (heartbeats, parent-down reports) and the sources splice in spare relays.
// A seeded relay of one flow is killed at every fixed virtual interval, and
// messages go out open-loop at a fixed virtual cadence, alternating flows.
//
// One episode is the whole scenario. Its protocol outcome (deliveries,
// virtual latencies, splices, packets) is a function of the seed alone; a
// run repeats the episode until its time is up, checks that every
// repetition produced the same outcome, and reports wall-clock costs as
// medians over the repetitions.
//
// An operation of this workload is one episode, and it fails when a
// delivery does not match the message sent. Messages that the injected
// loss and kills keep from arriving by their deadline are the scenario's
// outcome, not failed operations: they lower delivery_ratio and rank above
// every latency limit.
const (
	simFlows     = 2
	simSpares    = 12
	simMessages  = 2000
	simCadence   = 10 * time.Millisecond
	simKillEvery = 2 * time.Second
	simDeadline  = 2 * time.Second // virtual; later deliveries count as lost
	simMsgBytes  = 512
)

var simShape = graphShape{L: 3, D: 2, DPrime: 3, destLast: true}

func simLink() simnet.LinkProfile {
	return simnet.LinkProfile{Delay: 2 * time.Millisecond, Jitter: time.Millisecond, Loss: 0.01}
}

// outcome is an episode's protocol result, which the seed alone should
// decide.
type outcome struct {
	attempted, delivered int64
	vP50, vP95, vP99     float64 // virtual ms from each message's scheduled instant
	splices              int64   // splice patches applied at relays
	packets              int64   // SimNet packets
	kills                int
}

// episode is one run of the scenario.
type episode struct {
	out    outcome
	setupS float64
	// establishMs is the virtual time from the setup waves to every relay
	// of both flows established; reopened counts flows whose setup failed
	// and were opened again on a fresh graph.
	establishMs float64
	reopened    int
	win         window // the messaging phase
	heapMB      float64
	corrupt     int64
	recs        []*msgRec // each message as sent, for the traced path analysis
	traces      []*flowTrace
	relay0      relay.Stats
	relay1      relay.Stats
	table       int
	tr0, tr1    overlay.TransportStats
	drops       int64
}

type simFlow struct {
	*flow
	payload *payloads
	next    uint64
	msgs    []int // local message index → episode message index
}

func runEpisode(seed int64, t *tracer) (*episode, error) {
	ep := &episode{}
	setupStart := time.Now()
	clk := simnet.NewVirtualClock()
	net := simnet.NewSimNet(clk, seed, simLink())
	sc := &simnet.Script{Clk: clk, Net: net}
	var tr overlay.Transport = net
	if t != nil {
		// Frame events also carry virtual time, in which a link is its
		// simulated delay and a hop its simulated wait.
		t.virtual = func() int64 { return int64(clk.Elapsed()) }
		tr = t.wrap(net)
	}
	defer tr.Close()
	rng := rand.New(rand.NewSource(seed))

	graphRelays := simFlows * simShape.L * simShape.DPrime
	nodes := map[wire.NodeID]*relay.Node{}
	var all []*relay.Node
	defer func() {
		for _, n := range all {
			n.Close()
		}
	}()
	for i := 1; i <= graphRelays+simSpares; i++ {
		id := wire.NodeID(i)
		n, err := relay.New(id, tr, relay.Config{
			SetupWait:       50 * time.Millisecond,
			RoundWait:       50 * time.Millisecond,
			FlowTTL:         time.Minute,
			GCInterval:      time.Second,
			Heartbeat:       20 * time.Millisecond,
			LivenessTimeout: 80 * time.Millisecond,
			Shards:          1, // one worker per node: canonical per-link send order
			Rng:             rand.New(rand.NewSource(seed*1_000_003 + int64(id))),
			Clock:           clk,
		})
		if err != nil {
			return nil, err
		}
		nodes[id] = n
		all = append(all, n)
	}
	var (
		pickMu sync.Mutex
		used   = map[wire.NodeID]bool{}
	)
	pick := func(exclude func(wire.NodeID) bool) (wire.NodeID, bool) {
		pickMu.Lock()
		defer pickMu.Unlock()
		for i := graphRelays + 1; i <= graphRelays+simSpares; i++ {
			id := wire.NodeID(i)
			if !used[id] && !exclude(id) {
				used[id] = true
				return id, true
			}
		}
		return 0, false
	}

	flows := make([]*simFlow, simFlows)
	defer func() {
		for _, f := range flows {
			if f != nil {
				f.snd.StopRepair()
			}
		}
	}()
	// open builds flow f's graph over its own relays, starts the sender's
	// repair loop and injects the setup wave.
	open := func(f int, eps *source.Endpoints) error {
		pool := make([]wire.NodeID, simShape.L*simShape.DPrime)
		for i := range pool {
			pool[i] = wire.NodeID(f*len(pool) + i + 1)
		}
		t0 := time.Now()
		g, err := buildGraph(pool, eps.IDs(), simShape, rng)
		if err != nil {
			return err
		}
		if t != nil {
			t.span("core.build", time.Since(t0))
		}
		fl := &flow{g: g, eps: eps, dest: nodes[g.Dest]}
		if t != nil {
			fl.ft = t.register(g)
			fl.ft.per, fl.ft.every = 1, 1
			fl.ft.base.Store(0)
			ep.traces = append(ep.traces, fl.ft)
		}
		fl.snd = source.New(tr, g, source.Config{Clock: clk}, rand.New(rand.NewSource(rng.Int63())))
		t1 := time.Now()
		if err := fl.snd.Establish(); err != nil {
			return err
		}
		if t != nil {
			t.span("source.establish", time.Since(t1))
		}
		if old := flows[f]; old != nil {
			old.snd.StopRepair()
		}
		flows[f] = &simFlow{flow: fl, payload: newPayloads(f, simMsgBytes, rand.New(rand.NewSource(seed+int64(f))))}
		return fl.snd.StartRepair(eps, source.RepairConfig{Heartbeat: 20 * time.Millisecond, Pick: pick})
	}
	for f := range flows {
		srcs := make([]wire.NodeID, simShape.DPrime)
		for i := range srcs {
			srcs[i] = wire.NodeID(firstSourceID + f*10 + i)
		}
		eps, err := source.AttachEndpoints(tr, srcs)
		if err != nil {
			return nil, err
		}
		defer eps.Close()
		if err := open(f, eps); err != nil {
			return nil, err
		}
	}
	// Setup slices cross the same lossy links as data and are sent once:
	// a relay that forwarded a wave with a slice missing does not forward
	// it again, so re-injecting the wave cannot repair it. A flow still not
	// established after 500 ms is opened again on a fresh graph, as a
	// source would; ep.reopened counts those.
	established := func(f *simFlow) bool {
		for _, id := range f.g.Relays {
			if !nodes[id].Established(f.g.Flows[id]) {
				return false
			}
		}
		return true
	}
	estFrom := clk.Elapsed()
	for attempt := 1; !clk.AwaitCond(500*time.Millisecond, func() bool {
		return established(flows[0]) && established(flows[1])
	}); attempt++ {
		if attempt == 5 {
			return nil, fmt.Errorf("churn-sim flows not established after %d graphs", attempt)
		}
		for f := range flows {
			if !established(flows[f]) {
				ep.reopened++
				if err := open(f, flows[f].eps); err != nil {
					return nil, err
				}
			}
		}
	}
	ep.setupS = time.Since(setupStart).Seconds()
	ep.establishMs = float64(clk.Elapsed()-estFrom) / 1e6

	// Schedule the open-loop messages and the kills.
	start := clk.Elapsed() + 50*time.Millisecond
	end := start + simMessages*simCadence + simDeadline
	due := make([]time.Duration, simMessages)
	recvAt := make([]time.Duration, simMessages)
	ep.recs = make([]*msgRec, simMessages)
	var sendErr error
	for i := 0; i < simMessages; i++ {
		due[i] = start + time.Duration(i)*simCadence
		f := flows[i%simFlows]
		sc.At(due[i], func() {
			r := &msgRec{ft: f.ft, idx: f.next, sampled: f.ft != nil}
			f.msgs = append(f.msgs, i)
			f.next++
			if t != nil {
				t.track(f.ft, f.snd.Graph())
			}
			if err := f.send(r, f.payload.make(r.idx)); err != nil && sendErr == nil {
				sendErr = err
			}
			r.vsent = int64(due[i])
			ep.recs[i] = r
		})
	}
	// Kill k hits flow k mod 2, in stage k/2 mod L, so every episode kills
	// the same number of relays per stage and seeds differ only in which
	// relay of the stage dies: the stage decides how much a repair costs.
	killRng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for k := 1; start+time.Duration(k)*simKillEvery < end-simDeadline; k++ {
		f := flows[k%simFlows]
		stage := (k / simFlows) % simShape.L
		sc.At(start+time.Duration(k)*simKillEvery-5*time.Millisecond, func() {
			var cand []wire.NodeID
			for _, id := range f.snd.Graph().Stages[stage] {
				if id != f.g.Dest && !net.Down(id) {
					cand = append(cand, id)
				}
			}
			if len(cand) > 0 {
				net.Fail(cand[killRng.Intn(len(cand))])
				ep.out.kills++
			}
		})
	}

	// Step virtual time event by event; each delivery is stamped at the
	// virtual instant whose quiescence produced it.
	ep.relay0, _ = relayTotals(all)
	ep.tr0 = tr.Stats()
	ep.win.begin()
	for clk.Elapsed() < end && clk.Step() {
		for _, f := range flows {
			for drained := false; !drained; {
				select {
				case m := <-f.dest.Received():
					ep.deliver(f, m, clk.Elapsed(), recvAt)
				default:
					drained = true
				}
			}
		}
	}
	ep.win.finish()
	if sendErr != nil {
		return nil, fmt.Errorf("send: %w", sendErr)
	}
	// Episodes are short: the live heap is taken after a forced collection
	// at the end of the messaging phase, before teardown.
	ep.heapMB = liveHeapAfterGC()
	ep.relay1, ep.table = relayTotals(all)
	ep.tr1 = tr.Stats()
	for _, f := range flows {
		ep.drops += f.snd.SendDrops()
	}

	var lat []float64
	for i := range due {
		ep.out.attempted++
		if recvAt[i] > 0 && recvAt[i]-due[i] <= simDeadline {
			ep.out.delivered++
			lat = append(lat, float64(recvAt[i]-due[i])/1e6)
		} else {
			lat = append(lat, math.Inf(1))
			if r := ep.recs[i]; r != nil {
				r.failed = true
			}
		}
	}
	capMs := float64(simDeadline) / 1e6
	ep.out.vP50 = math.Min(percentile(lat, 50), capMs)
	ep.out.vP95 = math.Min(percentile(lat, 95), capMs)
	ep.out.vP99 = math.Min(percentile(lat, 99), capMs)
	ep.out.splices = ep.relay1.SplicesApplied
	ep.out.packets = net.Stats().Packets
	return ep, nil
}

// deliver verifies one decoded message and stamps its arrival.
func (ep *episode) deliver(f *simFlow, m relay.Message, at time.Duration, recvAt []time.Duration) {
	i, ok := f.payload.index(m.Data)
	if !ok || i >= uint64(len(f.msgs)) || !f.payload.check(i, m.Data) {
		ep.corrupt++
		return
	}
	g := f.msgs[i]
	if recvAt[g] == 0 {
		recvAt[g] = at
		if r := ep.recs[g]; r != nil {
			r.recv, r.vrecv = nanotime(), int64(at)
		}
	}
}

// runChurnSim repeats the episode until the run's time is up. Untraced,
// every repetition is untraced; traced, the first half of the time runs
// untraced repetitions (the reference) and the rest traced ones.
func runChurnSim(cfg runConfig) (*result, error) {
	var plain, traced []*episode
	deadline := time.Now().Add(cfg.seconds)
	refUntil := deadline
	if cfg.trace {
		refUntil = time.Now().Add(cfg.seconds / 2)
	}
	for len(plain) < 2 || time.Now().Before(refUntil) {
		ep, err := runEpisode(cfg.seed, nil)
		if err != nil {
			return nil, err
		}
		// Only the last traced episode's message records are analysed.
		// Kept for every episode, they would grow the live heap (and the
		// collector's work) with the number of episodes a run fits in.
		ep.recs = nil
		plain = append(plain, ep)
	}
	var lastTracer *tracer
	for cfg.trace && (len(traced) < 1 || time.Now().Before(deadline)) {
		lastTracer = newTracer()
		ep, err := runEpisode(cfg.seed, lastTracer)
		if err != nil {
			return nil, err
		}
		if n := len(traced); n > 0 {
			traced[n-1].recs, traced[n-1].traces = nil, nil
		}
		traced = append(traced, ep)
	}

	r := newResult()
	// Every repetition must reproduce the first episode's outcome. A
	// divergence is a determinism defect of the program, not a wrong
	// output: it is counted and reported, and the first episode's outcome
	// is the one reported.
	want := plain[0].out
	divergent := 0
	var sent, lost int64
	for _, ep := range append(append([]*episode(nil), plain...), traced...) {
		r.Attempted++
		sent += ep.out.attempted
		lost += ep.out.attempted - ep.out.delivered
		if ep.corrupt > 0 {
			r.Failed++
			r.Correct = false
			r.note("FAIL: %d deliveries did not match the message sent", ep.corrupt)
		}
		if ep.out != want {
			divergent++
			r.note("DETERMINISM: same seed, different outcome: %+v vs %+v", ep.out, want)
		}
	}
	r.note("outcome per episode: %d/%d delivered, vmsg p50 %.4g ms, p95 %.4g ms, p99 %.4g ms, %d kills, %d splices applied, %d packets, %d flows reopened after a failed setup; %d untraced + %d traced episodes",
		want.delivered, want.attempted, want.vP50, want.vP95, want.vP99, want.kills, want.splices, want.packets, plain[0].reopened, len(plain), len(traced))
	r.note("over all episodes: %d messages sent, %d lost to the injected loss and kills (in delivery_ratio, not in failed)", sent, lost)
	r.extra["vmsg_p50_ms"] = metric{want.vP50, "ms"}
	r.extra["vmsg_p95_ms"] = metric{want.vP95, "ms"}
	r.extra["vmsg_p99_ms"] = metric{want.vP99, "ms"}
	r.extra["msg_p99_ms"] = metric{want.vP99, "ms"}
	// The first episode of a process warms caches and the heap; wall
	// figures are medians over the rest.
	steady := plain[1:]
	wallMedian := func(eps []*episode, f func(*episode) float64) float64 {
		xs := make([]float64, len(eps))
		for i, ep := range eps {
			xs[i] = f(ep)
		}
		return median(xs)
	}
	msgsPerS := func(ep *episode) float64 { return float64(ep.out.delivered) / ep.win.seconds() }
	cpuPerMsg := func(ep *episode) float64 {
		return float64(ep.win.cpu().Microseconds()) / float64(max(ep.out.delivered, 1))
	}
	if !cfg.trace {
		r.set("setup_s", wallMedian(plain, func(ep *episode) float64 { return ep.setupS }), "s")
		r.set("goodput_mbps", wallMedian(steady, msgsPerS)*simMsgBytes*8/1e6, "Mbit/s")
		r.set("msgs_per_s", wallMedian(steady, msgsPerS), "1/s")
		r.set("msg_p50_ms", want.vP50, "ms")
		r.set("msg_p95_ms", want.vP95, "ms")
		r.set("delivery_ratio", float64(want.delivered)/float64(want.attempted), "ratio")
		r.set("cpu_us_per_msg", wallMedian(steady, cpuPerMsg), "us")
		r.set("heap_mb", wallMedian(steady, func(ep *episode) float64 { return ep.heapMB }), "MB")
		return r, nil
	}

	ep := traced[len(traced)-1]
	t := lastTracer
	setSourceMetrics(r, t, ep.recs, ep.drops, []float64{ep.establishMs})
	setTransportMetrics(r, t, ep.tr1, ep.tr0, want.delivered)
	a := traceAnalysis(ep.traces, ep.recs)
	setPathMetrics(r, a)
	setRelayMetrics(r, ep.relay1, ep.relay0, ep.table)
	r.set("simnet.vsec_per_wall_s", float64(simMessages*simCadence+simDeadline)/1e9/ep.win.seconds(), "ratio")
	r.set("simnet.packets", float64(want.packets), "count")
	r.set("simnet.divergent_episodes", float64(divergent), "count")
	setRuntimeMetrics(r, &ep.win, want.delivered)
	// In wall time a simulated message's latency is mostly the simulator
	// working through other events, so the layers are attributed on the
	// virtual clock.
	vts, vrecs := virtualView(ep.traces, ep.recs)
	addAttribution(r, traceAnalysis(vts, vrecs), ep.out.vP50)
	r.set("trace.overhead_pct", pctChange(ep.out.vP50, want.vP50), "%")
	r.set("trace.cpu_overhead_pct", pctChange(cpuPerMsg(ep), wallMedian(steady, cpuPerMsg)), "%")
	r.note("tracing cannot move virtual time: trace.overhead_pct compares virtual msg_p50; per-layer times are wall time, the critical-path attribution is virtual")
	if err := writeSpans(spanFile(cfg), a.spans); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	return r, nil
}
