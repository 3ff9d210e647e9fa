package main

import (
	"encoding/binary"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"infoslicing/internal/core"
	"infoslicing/internal/overlay"
	"infoslicing/internal/wire"
)

// The traced run wraps the transport every relay and source uses. The
// wrapper reads only the fixed packet header (type, flow-id, sequence),
// synchronously inside the send calls and the receive handler, and maps
// flow-ids back to (graph, node) through core.Graph.Flows. It records:
//
//   - every hand-off (Send/SendOwned call) and every handler call in
//     histograms, with no per-packet memory;
//   - for sampled messages only, one event per data frame handed off and
//     one per data frame received, from which the analysis (critical.go)
//     rebuilds each message's path through the overlay.
//
// The program itself is unchanged: the wrapper offers OwnedSender,
// CongestionAdvisor and LossReporter exactly when the wrapped transport
// does, so relays keep their zero-copy egress and sources keep pacing.

// frameEvent is one data frame seen at the transport boundary: handed off
// by from toward to, or received by to from from. at is when the send or
// handler call began.
type frameEvent struct {
	from, to wire.NodeID
	seq      uint32
	at       int64 // wall clock
	vat      int64 // virtual clock, when the tracer has one
}

// flowTrace is the traced state of one forwarding graph. It keeps only
// what the path analysis needs of the graph, not the graph itself.
type flowTrace struct {
	flows    []wire.FlowID
	dest     wire.NodeID
	destFlow wire.FlowID
	d, l     int
	sources  map[wire.NodeID]bool

	// Hand-off time and frames of the graph's source endpoints, so a Send
	// span can be split into the sender's own work and its hand-offs.
	handoffNs atomic.Int64
	srcFrames atomic.Int64

	// Sampling: rounds [base+k·per·every, base+k·per·every+per) are traced
	// for k ≥ 0, i.e. every every-th message of per rounds. base < 0 means
	// nothing is sampled yet.
	base       atomic.Int64
	per, every int64

	mu    sync.Mutex
	sends []frameEvent
	recvs []frameEvent
}

func (ft *flowTrace) sampled(seq uint32) bool {
	base := ft.base.Load()
	if base < 0 || int64(seq) < base {
		return false
	}
	return ((int64(seq)-base)/ft.per)%ft.every == 0
}

// tracer owns the spans and counters of one traced run.
type tracer struct {
	flows   sync.Map // wire.FlowID → *flowTrace
	sources sync.Map // source endpoint wire.NodeID → *flowTrace

	handoff    hist // Send/SendOwned call durations
	ingress    hist // receive-handler call durations (relay filter + enqueue)
	calls      atomic.Int64
	frames     atomic.Int64
	ownedCalls atomic.Int64

	// budget bounds the sampled frame events kept in memory; once spent,
	// further frames are not recorded and their messages drop out of the
	// path analysis (counted there as incomplete).
	budget atomic.Int64

	spanMu sync.Mutex
	spans  map[string][]float64 // named call spans (µs): core.build, source.establish, ...

	// virtual, when set, also stamps frame events with the overlay's
	// virtual clock (ns).
	virtual func() int64
}

// eventBudget bounds the frame events one traced run keeps: a few tens of
// MB, several times what any workload's sampling produces.
const eventBudget = 1_500_000

func newTracer() *tracer {
	t := &tracer{spans: map[string][]float64{}}
	t.budget.Store(eventBudget)
	return t
}

// span records the duration of one named call in µs.
func (t *tracer) span(name string, d time.Duration) {
	t.spanMu.Lock()
	t.spans[name] = append(t.spans[name], float64(d)/1e3)
	t.spanMu.Unlock()
}

func (t *tracer) spanValues(name string) []float64 {
	t.spanMu.Lock()
	defer t.spanMu.Unlock()
	return append([]float64(nil), t.spans[name]...)
}

// register makes a graph's flow-ids and source endpoints known to the
// wrapper. Call it before the graph's first packet is sent.
func (t *tracer) register(g *core.Graph) *flowTrace {
	ft := &flowTrace{dest: g.Dest, destFlow: g.Flows[g.Dest], d: g.D, l: g.L, sources: map[wire.NodeID]bool{}}
	ft.base.Store(-1)
	t.track(ft, g)
	for _, s := range g.Sources {
		ft.sources[s] = true
		t.sources.Store(s, ft)
	}
	return ft
}

// track maps the graph's flow-ids to ft, adding those it does not hold
// yet: a splice gives the hops it re-keys fresh ids. Call it from the
// goroutine that changes the graph.
func (t *tracer) track(ft *flowTrace, g *core.Graph) {
	for _, f := range g.Flows {
		if !slices.Contains(ft.flows, f) {
			ft.flows = append(ft.flows, f)
			t.flows.Store(f, ft)
		}
	}
}

// unregister forgets a graph's ids once its flow is torn down.
func (t *tracer) unregister(ft *flowTrace) {
	for _, f := range ft.flows {
		t.flows.CompareAndDelete(f, ft)
	}
	for s := range ft.sources {
		t.sources.CompareAndDelete(s, ft)
	}
}

// header is what the wrapper reads of a frame.
type header struct {
	typ  wire.MsgType
	flow wire.FlowID
	seq  uint32
}

func readHeader(b []byte) (header, bool) {
	if len(b) < wire.HeaderLen {
		return header{}, false
	}
	return header{
		typ:  wire.MsgType(b[0]),
		flow: wire.FlowID(binary.BigEndian.Uint64(b[1:])),
		seq:  binary.BigEndian.Uint32(b[9:]),
	}, true
}

func (t *tracer) flowOf(f wire.FlowID) *flowTrace {
	v, ok := t.flows.Load(f)
	if !ok {
		return nil
	}
	return v.(*flowTrace)
}

// takeBudget reserves room for one sampled event.
func (t *tracer) takeBudget() bool { return t.budget.Add(-1) >= 0 }

// event builds the frame event of a call that started at wall time start.
func (t *tracer) event(from, to wire.NodeID, seq uint32, start int64) frameEvent {
	e := frameEvent{from: from, to: to, seq: seq, at: start}
	if t.virtual != nil {
		e.vat = t.virtual()
	}
	return e
}

// handedOff accounts one successful Send/SendOwned call.
func (t *tracer) handedOff(from, to wire.NodeID, hs []header, start, end int64) {
	t.calls.Add(1)
	t.frames.Add(int64(len(hs)))
	t.handoff.observe(end - start)
	if v, ok := t.sources.Load(from); ok {
		ft := v.(*flowTrace)
		ft.handoffNs.Add(end - start)
		ft.srcFrames.Add(int64(len(hs)))
	}
	for _, h := range hs {
		if h.typ != wire.MsgData {
			continue
		}
		ft := t.flowOf(h.flow)
		if ft == nil || !ft.sampled(h.seq) || !t.takeBudget() {
			continue
		}
		e := t.event(from, to, h.seq, start)
		ft.mu.Lock()
		ft.sends = append(ft.sends, e)
		ft.mu.Unlock()
	}
}

// received accounts one handler call.
func (t *tracer) received(from, to wire.NodeID, h header, ok bool, start, end int64) {
	t.ingress.observe(end - start)
	if !ok || h.typ != wire.MsgData {
		return
	}
	ft := t.flowOf(h.flow)
	if ft == nil || !ft.sampled(h.seq) || !t.takeBudget() {
		return
	}
	e := t.event(from, to, h.seq, start)
	ft.mu.Lock()
	ft.recvs = append(ft.recvs, e)
	ft.mu.Unlock()
}

// tracedTransport is the wrapper's core: everything in overlay.Transport.
type tracedTransport struct {
	t     *tracer
	inner overlay.Transport
}

// ownedTrace adds SendOwned when the wrapped transport has it.
type ownedTrace struct {
	b     *tracedTransport
	inner overlay.OwnedSender
}

// wrap returns the traced transport with exactly the wrapped transport's
// optional capabilities.
func (t *tracer) wrap(inner overlay.Transport) overlay.Transport {
	b := &tracedTransport{t: t, inner: inner}
	o, isO := inner.(overlay.OwnedSender)
	a, isA := inner.(overlay.CongestionAdvisor)
	l, isL := inner.(overlay.LossReporter)
	ow := &ownedTrace{b: b, inner: o}
	type (
		adv  = overlay.CongestionAdvisor
		loss = overlay.LossReporter
	)
	switch {
	case isO && isA && isL:
		return struct {
			*tracedTransport
			*ownedTrace
			adv
			loss
		}{b, ow, a, l}
	case isO && isA:
		return struct {
			*tracedTransport
			*ownedTrace
			adv
		}{b, ow, a}
	case isO && isL:
		return struct {
			*tracedTransport
			*ownedTrace
			loss
		}{b, ow, l}
	case isO:
		return struct {
			*tracedTransport
			*ownedTrace
		}{b, ow}
	case isA && isL:
		return struct {
			*tracedTransport
			adv
			loss
		}{b, a, l}
	case isA:
		return struct {
			*tracedTransport
			adv
		}{b, a}
	case isL:
		return struct {
			*tracedTransport
			loss
		}{b, l}
	}
	return b
}

func (b *tracedTransport) Attach(id wire.NodeID, h overlay.Handler) error {
	t := b.t
	return b.inner.Attach(id, func(from wire.NodeID, data []byte) {
		// The header is read before the handler runs: afterwards the buffer
		// belongs to the node.
		hdr, ok := readHeader(data)
		start := nanotime()
		h(from, data)
		t.received(from, id, hdr, ok, start, nanotime())
	})
}

func (b *tracedTransport) Send(from, to wire.NodeID, data []byte) error {
	start := nanotime()
	err := b.inner.Send(from, to, data)
	end := nanotime()
	if err == nil {
		// Send does not retain data, but the caller cannot reuse it before
		// this call returns, so the header is still intact here.
		if h, ok := readHeader(data); ok {
			b.t.handedOff(from, to, []header{h}, start, end)
		}
	}
	return err
}

func (o *ownedTrace) SendOwned(from, to wire.NodeID, bufs [][]byte, release func()) error {
	// Headers first: once handed off, the views may be released and reused.
	var scratch [32]header
	hs := scratch[:0]
	for _, buf := range bufs {
		if h, ok := readHeader(buf); ok {
			hs = append(hs, h)
		}
	}
	start := nanotime()
	err := o.inner.SendOwned(from, to, bufs, release)
	end := nanotime()
	o.b.t.ownedCalls.Add(1)
	if err == nil {
		o.b.t.handedOff(from, to, hs, start, end)
	}
	return err
}

func (b *tracedTransport) Detach(id wire.NodeID)         { b.inner.Detach(id) }
func (b *tracedTransport) Fail(id wire.NodeID)           { b.inner.Fail(id) }
func (b *tracedTransport) Revive(id wire.NodeID)         { b.inner.Revive(id) }
func (b *tracedTransport) Down(id wire.NodeID) bool      { return b.inner.Down(id) }
func (b *tracedTransport) Stats() overlay.TransportStats { return b.inner.Stats() }
func (b *tracedTransport) Close()                        { b.inner.Close() }
