package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"infoslicing/internal/overlay"
	"infoslicing/internal/relay"
	"infoslicing/internal/wire"
)

// wallWorkload describes one workload that runs over real loopback
// sockets in wall-clock time.
type wallWorkload struct {
	newTransport func(seed int64) overlay.Transport
	relayCfg     relay.Config // Rng is filled per relay from the seed
	pool         int
	shape        graphShape
	flows        int // client goroutines, one flow (or one cycle at a time) each
	window       int // messages in flight per flow (streaming workloads)
	msgBytes     int
	churn        bool // flow-churn cycles instead of streaming
	deadline     time.Duration
	sampleEvery  int64 // traced runs trace every sampleEvery-th message
}

const (
	// setupReps set-ups are timed per run. One set-up takes a few
	// milliseconds and single ones vary by a factor of two, so setup_s is
	// the median of many.
	setupReps = 31
	// establishTimeout bounds one flow's establishment; no workload comes
	// near it, so hitting it is an error, not a measurement.
	establishTimeout = 10 * time.Second
)

// warmup precedes every measured window. It is past the point where the
// relays' per-flow round tables reach their bound (about 8192 rounds, some
// three seconds into small-udp), so the window sees the steady state.
const warmup = 5 * time.Second

func baseRelayCfg() relay.Config {
	return relay.Config{
		SetupWait:  300 * time.Millisecond,
		RoundWait:  300 * time.Millisecond,
		FlowTTL:    5 * time.Minute,
		GCInterval: 30 * time.Second,
	}
}

func tcpTransport(int64) overlay.Transport { return overlay.NewTCPNetwork() }

func udpTransport(seed int64) overlay.Transport {
	opts := overlay.UDPOptions{Seed: seed}
	// Loopback round trips are microseconds; the WAN-sized default RTO
	// ceiling would only turn a backed-off timeout into a long stall.
	opts.Config.MaxRTO = time.Second
	return overlay.NewUDPNetwork(opts)
}

func runBulkTCP(cfg runConfig) (*result, error) {
	return runWall(cfg, wallWorkload{
		newTransport: tcpTransport,
		relayCfg:     baseRelayCfg(),
		pool:         24,
		shape:        graphShape{L: 3, D: 2, DPrime: 3, destLast: true},
		flows:        2,
		window:       4,
		msgBytes:     64 << 10,
		deadline:     2 * time.Second,
		sampleEvery:  8,
	})
}

func runSmallUDP(cfg runConfig) (*result, error) {
	return runWall(cfg, wallWorkload{
		newTransport: udpTransport,
		relayCfg:     baseRelayCfg(),
		pool:         24,
		shape:        graphShape{L: 3, D: 2, DPrime: 2, destLast: true},
		flows:        2,
		window:       1,
		msgBytes:     256,
		deadline:     2 * time.Second,
		sampleEvery:  4,
	})
}

func runFlowChurn(cfg runConfig) (*result, error) {
	rc := baseRelayCfg()
	rc.FlowTTL = time.Second
	rc.GCInterval = 250 * time.Millisecond
	return runWall(cfg, wallWorkload{
		newTransport: tcpTransport,
		relayCfg:     rc,
		pool:         24,
		shape:        graphShape{L: 3, D: 2, DPrime: 3},
		flows:        2,
		msgBytes:     256,
		churn:        true,
		deadline:     2 * time.Second,
		sampleEvery:  2,
	})
}

// runWall measures a wall-clock workload. Untraced, it reports the
// end-to-end metrics over the whole measured time. Traced, it spends half
// the time on an untraced reference and half on the traced stack, and
// reports per-layer metrics plus the tracing overhead between the two.
func runWall(cfg runConfig, w wallWorkload) (*result, error) {
	if !cfg.trace {
		m, err := w.measure(cfg.seed, cfg.seconds, nil)
		if err != nil {
			return nil, err
		}
		return m.endToEnd(), nil
	}
	half := cfg.seconds / 2
	ref, err := w.measure(cfg.seed, half, nil)
	if err != nil {
		return nil, err
	}
	m, err := w.measure(cfg.seed, half, newTracer())
	if err != nil {
		return nil, err
	}
	return m.perLayer(ref, cfg)
}

// msgRec is one operation in progress: a message (streaming) or a whole
// cycle (flow-churn, whose message fields describe the cycle's message).
// Records are dropped once counted, except the sampled ones of a traced
// run, which the path analysis needs.
type msgRec struct {
	ft          *flowTrace // nil when untraced
	idx         uint64
	start       int64 // cycle start (flow-churn) or Send call start
	sent        int64 // Send call start
	sendNs      int64 // Send call duration
	recv        int64 // dispatcher stamp; 0 while undelivered
	failed      bool
	establishNs int64 // flow-churn: Establish call → destination established

	// Traced runs only.
	handoffNs    int64 // time of the Send spent in transport hand-offs
	vsent, vrecv int64 // churn-sim: scheduled and delivered instants, virtual ns
	frames       int64 // frames the source handed off for this message
	seqLo, seqHi uint32
	sampled      bool
}

func (r *msgRec) latencyMs() float64 {
	if r.failed || r.recv == 0 {
		return math.Inf(1)
	}
	return float64(r.recv-r.sent) / 1e6
}

// tally accumulates the outcomes of the operations started inside the
// window, per one-second slice, without keeping a record per operation:
// the benchmark's own memory must not grow with the system's throughput.
type tally struct {
	start, sliceNs int64
	slices         []sliceTally
	establishMs    []float64 // flow-churn: per cycle
	corrupt, late  int64
	sampled        []*msgRec // traced runs: sampled operations
}

type sliceTally struct {
	latMs     []float32 // +Inf for a failed operation
	delivered int
}

func newTally(start, sliceNs int64, n int) *tally {
	return &tally{start: start, sliceNs: sliceNs, slices: make([]sliceTally, n)}
}

// add counts one finished operation, if it started inside the window.
func (t *tally) add(r *msgRec) {
	i := (r.start - t.start) / t.sliceNs
	if r.start < t.start || i >= int64(len(t.slices)) {
		return
	}
	l := r.latencyMs()
	t.slices[i].latMs = append(t.slices[i].latMs, float32(l))
	if !math.IsInf(l, 1) {
		t.slices[i].delivered++
	}
	if r.establishNs > 0 {
		t.establishMs = append(t.establishMs, float64(r.establishNs)/1e6)
	}
	if r.sampled {
		t.sampled = append(t.sampled, r)
	}
}

func (t *tally) merge(o *tally) {
	for i := range t.slices {
		t.slices[i].latMs = append(t.slices[i].latMs, o.slices[i].latMs...)
		t.slices[i].delivered += o.slices[i].delivered
	}
	t.establishMs = append(t.establishMs, o.establishMs...)
	t.corrupt += o.corrupt
	t.late += o.late
	t.sampled = append(t.sampled, o.sampled...)
}

// measurement is everything one measured phase produced.
type measurement struct {
	w      *wallWorkload
	setups []float64 // seconds per setup
	// setupEstablishMs holds, for streaming workloads, each setup flow's
	// time from its setup wave to every relay established.
	setupEstablishMs []float64
	win              window
	tally            *tally
	stray            int64
	relay0           relay.Stats
	relay1           relay.Stats
	table            int
	tr0, tr1         overlay.TransportStats
	drops            int64 // source frames shed at full transport queues
	tracer           *tracer
	traces           []*flowTrace
}

// measure builds the stack setupReps times (timing each), keeps the last,
// runs the warm-up and the measured window, and drains.
func (w *wallWorkload) measure(seed int64, d time.Duration, t *tracer) (*measurement, error) {
	m := &measurement{w: w, tracer: t}
	var (
		s     *stack
		flows []*flow
	)
	for rep := 0; rep < setupReps; rep++ {
		if s != nil {
			s.close()
		}
		start := time.Now()
		var (
			est []float64
			err error
		)
		s, flows, est, err = w.setup(seed, rand.New(rand.NewSource(seed)), t)
		if err != nil {
			return nil, err
		}
		m.setups = append(m.setups, time.Since(start).Seconds())
		m.setupEstablishMs = append(m.setupEstablishMs, est...)
	}
	defer s.close()

	// The window is cut into one-second slices; rates, CPU and latency
	// percentiles are medians over the slices, so one stall does not swing
	// a whole run.
	n := max(1, int(d/time.Second))
	sliceNs := int64(d) / int64(n)
	measureStart := nanotime() + int64(warmup)
	stopSend := measureStart + int64(n)*sliceNs
	clients := make([]*client, w.flows)
	for i := range clients {
		rng := rand.New(rand.NewSource(seed*7919 + int64(i)))
		clients[i] = &client{
			w: w, s: s, rng: rng, payload: newPayloads(i, w.msgBytes, rng),
			tally: newTally(measureStart, sliceNs, n), measureStart: measureStart, stopSend: stopSend,
		}
		if !w.churn {
			clients[i].f = flows[i]
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, len(clients))
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = c.run()
		}()
	}
	time.Sleep(time.Duration(measureStart - nanotime()))
	m.relay0, _ = relayTotals(s.nodes)
	m.tr0 = s.tr.Stats()
	m.win.begin()
	for i := 1; i < n; i++ {
		time.Sleep(time.Duration(measureStart + int64(i)*sliceNs - nanotime()))
		m.win.mark()
	}
	time.Sleep(time.Duration(stopSend - nanotime()))
	m.win.finish()
	m.relay1, m.table = relayTotals(s.nodes)
	m.tr1 = s.tr.Stats()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	m.tally = newTally(measureStart, sliceNs, n)
	for _, c := range clients {
		m.tally.merge(c.tally)
		m.traces = append(m.traces, c.traces...)
	}
	for _, f := range flows {
		m.drops += f.snd.SendDrops()
		if f.ft != nil {
			m.traces = append(m.traces, f.ft)
		}
	}
	m.stray = s.stray.Load()
	return m, nil
}

// setup builds one stack and, for streaming workloads, opens and fully
// establishes its flows. It returns each flow's establishment time.
func (w *wallWorkload) setup(seed int64, rng *rand.Rand, t *tracer) (*stack, []*flow, []float64, error) {
	tr := w.newTransport(seed)
	if t != nil {
		tr = t.wrap(tr)
	}
	s, err := newStack(tr, t, w.pool, func(id wire.NodeID) relay.Config {
		c := w.relayCfg
		c.Rng = rand.New(rand.NewSource(seed*1_000_003 + int64(id)))
		return c
	})
	if err != nil {
		tr.Close()
		return nil, nil, nil, err
	}
	if w.churn {
		return s, nil, nil, nil
	}
	var (
		flows []*flow
		est   []float64
	)
	// Each flow gets its own relays from the pool, so which flows happen to
	// share a relay (and its shard workers) does not change from seed to
	// seed.
	need := w.shape.L * w.shape.DPrime
	pool := s.poolIDs()
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	for i := 0; i < w.flows; i++ {
		start := nanotime()
		f, err := s.openFlow(pool[i*need:(i+1)*need], w.shape, rng, 4*w.window+64)
		if err != nil {
			s.close()
			return nil, nil, nil, err
		}
		if !s.awaitEstablished(f, true, establishTimeout) {
			s.close()
			return nil, nil, nil, fmt.Errorf("flow to %d not established within %v", f.g.Dest, establishTimeout)
		}
		est = append(est, float64(nanotime()-start)/1e6)
		flows = append(flows, f)
	}
	return s, flows, est, nil
}

// client is one load-generating goroutine.
type client struct {
	w            *wallWorkload
	s            *stack
	f            *flow // streaming workloads: the client's flow
	rng          *rand.Rand
	payload      *payloads
	tally        *tally
	measureStart int64
	stopSend     int64

	traces       []*flowTrace // flow-churn: the traced graphs of the window
	roundsPerMsg int64
	next         uint64
}

func (c *client) run() error {
	if c.w.churn {
		return c.runCycles()
	}
	return c.runStream()
}

// runStream keeps up to window messages of one flow in flight until the
// window closes, then drains. A message is failed when its deadline passes
// or a later message of the flow arrives first (delivery is stream
// ordered, so it can no longer arrive).
func (c *client) runStream() error {
	deadline := int64(c.w.deadline)
	var queue []*msgRec
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		now := nanotime()
		for len(queue) > 0 && now-queue[0].sent > deadline {
			c.fail(queue[0])
			queue = queue[1:]
		}
		sending := now < c.stopSend
		if !sending && len(queue) == 0 {
			return nil
		}
		if sending && len(queue) < c.w.window {
			r, err := c.send(c.f, now)
			if err != nil {
				return err
			}
			queue = append(queue, r)
			continue
		}
		wait := queue[0].sent + deadline - now
		if sending {
			wait = min(wait, c.stopSend-now)
		}
		timer.Reset(time.Duration(max(wait, 0)))
		select {
		case d := <-c.f.inbox:
			queue = c.deliver(d, queue)
		case <-timer.C:
		}
	}
}

func (c *client) fail(r *msgRec) {
	r.failed = true
	c.tally.add(r)
}

// send builds and sends the client's next message on f.
func (c *client) send(f *flow, start int64) (*msgRec, error) {
	r := &msgRec{ft: f.ft, idx: c.next, start: start}
	c.next++
	msg := c.payload.make(r.idx)
	if ft := f.ft; ft != nil {
		lo := int64(f.snd.Rounds())
		if !c.w.churn && ft.base.Load() < 0 && c.roundsPerMsg > 0 && start >= c.measureStart {
			// Sampling starts with the first message of the window, once
			// the flow's rounds per message are known.
			ft.per, ft.every = c.roundsPerMsg, c.w.sampleEvery
			ft.base.Store(lo)
		}
		if b := ft.base.Load(); b >= 0 && lo >= b {
			r.sampled = ((lo-b)/ft.per)%ft.every == 0
		}
	}
	if err := f.send(r, msg); err != nil {
		return nil, err
	}
	if f.ft != nil {
		c.roundsPerMsg = int64(r.seqHi - r.seqLo)
	}
	return r, nil
}

// send times one Send call into r; traced, it also records the rounds the
// message took and the part of the call spent in transport hand-offs.
func (f *flow) send(r *msgRec, msg []byte) error {
	var h0, fr0 int64
	if ft := f.ft; ft != nil {
		r.seqLo = f.snd.Rounds()
		h0, fr0 = ft.handoffNs.Load(), ft.srcFrames.Load()
	}
	r.sent = nanotime()
	err := f.snd.Send(msg)
	r.sendNs = nanotime() - r.sent
	if err != nil {
		return fmt.Errorf("send: %w", err)
	}
	if ft := f.ft; ft != nil {
		r.seqHi = f.snd.Rounds()
		r.handoffNs = ft.handoffNs.Load() - h0
		r.frames = ft.srcFrames.Load() - fr0
	}
	return nil
}

// deliver matches one delivery against the flow's outstanding messages
// and verifies it byte for byte.
func (c *client) deliver(d delivery, queue []*msgRec) []*msgRec {
	i, ok := c.payload.index(d.data)
	if !ok {
		c.tally.corrupt++
		return queue
	}
	for len(queue) > 0 && queue[0].idx < i {
		c.fail(queue[0]) // overtaken: lost for good
		queue = queue[1:]
	}
	if len(queue) == 0 || queue[0].idx != i {
		c.tally.late++ // written off already (or duplicated)
		if !c.payload.check(i, d.data) {
			c.tally.corrupt++
		}
		return queue
	}
	r := queue[0]
	if !c.payload.check(i, d.data) {
		c.tally.corrupt++
		c.fail(r)
	} else {
		r.recv = d.at
		c.tally.add(r)
	}
	return queue[1:]
}

// runCycles repeats the flow-churn cycle until the window closes: build a
// graph, establish it, wait for the destination, send one message, wait
// for it, detach.
func (c *client) runCycles() error {
	for {
		start := nanotime()
		if start >= c.stopSend {
			return nil
		}
		if err := c.cycle(start); err != nil {
			return err
		}
	}
}

func (c *client) cycle(start int64) error {
	f, err := c.s.openFlow(c.s.poolIDs(), c.w.shape, c.rng, 4)
	if err != nil {
		return err
	}
	defer c.s.closeFlow(f)
	estStart := nanotime()
	inWindow := start >= c.measureStart && start < c.stopSend
	if f.ft != nil && inWindow && c.next%uint64(c.w.sampleEvery) == 0 {
		f.ft.per, f.ft.every = 1, 1
		f.ft.base.Store(0)
		c.traces = append(c.traces, f.ft)
	}
	if !c.s.awaitEstablished(f, false, c.w.deadline) {
		c.fail(&msgRec{idx: c.next, start: start})
		c.next++
		return nil
	}
	estNs := nanotime() - estStart
	r, err := c.send(f, start)
	if err != nil {
		return err
	}
	r.establishNs = estNs
	timer := time.NewTimer(c.w.deadline)
	defer timer.Stop()
	select {
	case d := <-f.inbox:
		c.deliver(d, []*msgRec{r})
	case <-timer.C:
		c.fail(r)
	}
	return nil
}
