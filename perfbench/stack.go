package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"infoslicing/internal/core"
	"infoslicing/internal/overlay"
	"infoslicing/internal/relay"
	"infoslicing/internal/source"
	"infoslicing/internal/wire"
)

// stack is one relay pool on one transport, in this process: the system
// under test. Relays are addressed 1..pool; source endpoints get fresh ids
// from firstSourceID up.
type stack struct {
	tr     overlay.Transport // what relays and sources use (traced or not)
	tracer *tracer           // nil when untraced
	nodes  []*relay.Node
	byID   map[wire.NodeID]*relay.Node

	inboxes sync.Map     // wire.FlowID → chan delivery
	stray   atomic.Int64 // deliveries for no registered flow
	nextSrc atomic.Uint32

	done chan struct{}
	wg   sync.WaitGroup
}

const firstSourceID = 100_000

// delivery is one plaintext message taken off a node's Received channel,
// stamped the moment the dispatcher got it.
type delivery struct {
	data []byte
	at   int64
}

// newStack attaches pool relays to tr and starts one dispatcher per relay
// that routes deliveries to the inbox of their flow.
func newStack(tr overlay.Transport, t *tracer, pool int, cfg func(id wire.NodeID) relay.Config) (*stack, error) {
	s := &stack{tr: tr, tracer: t, byID: map[wire.NodeID]*relay.Node{}, done: make(chan struct{})}
	s.nextSrc.Store(firstSourceID)
	for i := 1; i <= pool; i++ {
		id := wire.NodeID(i)
		n, err := relay.New(id, tr, cfg(id))
		if err != nil {
			s.close()
			return nil, fmt.Errorf("relay %d: %w", id, err)
		}
		s.nodes = append(s.nodes, n)
		s.byID[id] = n
		s.wg.Add(1)
		go s.dispatch(n)
	}
	return s, nil
}

func (s *stack) dispatch(n *relay.Node) {
	defer s.wg.Done()
	for {
		select {
		case m := <-n.Received():
			at := nanotime()
			v, ok := s.inboxes.Load(m.Flow)
			if !ok {
				s.stray.Add(1)
				continue
			}
			select {
			case v.(chan delivery) <- delivery{data: m.Data, at: at}:
			case <-s.done:
				return
			}
		case <-s.done:
			return
		}
	}
}

// close stops the dispatchers, the relays and the transport, and waits for
// every goroutine the stack started.
func (s *stack) close() {
	close(s.done)
	s.wg.Wait()
	for _, n := range s.nodes {
		n.Close()
	}
	s.tr.Close()
}

func (s *stack) poolIDs() []wire.NodeID {
	ids := make([]wire.NodeID, len(s.nodes))
	for i, n := range s.nodes {
		ids[i] = n.ID()
	}
	return ids
}

// graphShape is the forwarding-graph geometry of a workload.
type graphShape struct {
	L, D, DPrime int
	// destLast keeps only graphs whose destination sits in the last stage,
	// so every message crosses all L stages and every critical path has the
	// same shape. Otherwise the destination's stage is uniform, as in
	// core.Build.
	destLast bool
}

// flow is one anonymous flow: its graph, sender, endpoints and inbox.
type flow struct {
	g     *core.Graph
	snd   *source.Sender
	eps   *source.Endpoints
	ft    *flowTrace // nil when untraced
	inbox chan delivery
	dest  *relay.Node
}

// buildGraph draws a graph over a random subset of the pool.
func buildGraph(pool []wire.NodeID, srcs []wire.NodeID, sh graphShape, rng *rand.Rand) (*core.Graph, error) {
	need := sh.L * sh.DPrime
	for try := 0; try < 256; try++ {
		perm := rng.Perm(len(pool))[:need]
		relays := make([]wire.NodeID, need)
		for i, p := range perm {
			relays[i] = pool[p]
		}
		g, err := core.Build(core.Spec{
			L: sh.L, D: sh.D, DPrime: sh.DPrime,
			Relays: relays, Dest: relays[0], Sources: srcs,
			Recode: true, Scramble: true, Rng: rng,
		})
		if err != nil {
			return nil, err
		}
		if !sh.destLast || g.DestStage == sh.L {
			return g, nil
		}
	}
	return nil, errors.New("no graph with the destination in the last stage")
}

// openFlow attaches fresh source endpoints, builds a graph over relays
// drawn from candidates, registers it
// with the dispatcher (and tracer) and injects the setup wave. It does not
// wait for establishment.
func (s *stack) openFlow(candidates []wire.NodeID, sh graphShape, rng *rand.Rand, inboxCap int) (*flow, error) {
	srcs := make([]wire.NodeID, sh.DPrime)
	for i := range srcs {
		srcs[i] = wire.NodeID(s.nextSrc.Add(1))
	}
	eps, err := source.AttachEndpoints(s.tr, srcs)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	g, err := buildGraph(candidates, srcs, sh, rng)
	if err != nil {
		eps.Close()
		return nil, err
	}
	f := &flow{g: g, eps: eps, inbox: make(chan delivery, inboxCap), dest: s.byID[g.Dest]}
	if s.tracer != nil {
		s.tracer.span("core.build", time.Since(t0))
		f.ft = s.tracer.register(g)
	}
	f.snd = source.New(s.tr, g, source.Config{}, rand.New(rand.NewSource(rng.Int63())))
	s.inboxes.Store(g.Flows[g.Dest], f.inbox)
	t1 := time.Now()
	if err := f.snd.Establish(); err != nil {
		s.closeFlow(f)
		return nil, err
	}
	if s.tracer != nil {
		s.tracer.span("source.establish", time.Since(t1))
	}
	return f, nil
}

// closeFlow detaches the flow's endpoints and forgets it. The relays keep
// its state until their own timers evict it.
func (s *stack) closeFlow(f *flow) {
	s.inboxes.Delete(f.g.Flows[f.g.Dest])
	f.eps.Close()
	if f.ft != nil {
		s.tracer.unregister(f.ft)
	}
}

// awaitEstablished polls until the destination (or, with all, every relay
// of the graph) has decoded its routing block, or the deadline passes.
func (s *stack) awaitEstablished(f *flow, all bool, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		ok := f.dest.Established(f.g.Flows[f.g.Dest])
		if ok && all {
			for _, id := range f.g.Relays {
				if !s.byID[id].Established(f.g.Flows[id]) {
					ok = false
					break
				}
			}
		}
		if ok {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// relayTotals sums the counters and flow-table sizes of nodes.
func relayTotals(nodes []*relay.Node) (st relay.Stats, tableSize int) {
	for _, n := range nodes {
		ns := n.Stats()
		st.QueueDrops += ns.QueueDrops
		st.SendDrops += ns.SendDrops
		st.Regenerated += ns.Regenerated
		st.RoundsSkipped += ns.RoundsSkipped
		st.Dropped += ns.Dropped
		st.FlowsEvicted += ns.FlowsEvicted
		st.FlowsRejected += ns.FlowsRejected
		st.FilterMisses += ns.FilterMisses
		st.HeartbeatsOut += ns.HeartbeatsOut
		st.ParentDownSent += ns.ParentDownSent
		st.SplicesApplied += ns.SplicesApplied
		st.MessagesDelivered += ns.MessagesDelivered
		tableSize += n.FlowTableSize()
	}
	return st, tableSize
}

// payloads makes the messages of one flow: message i is an 8-byte id
// (flow, i) followed by one of a few seeded random bodies, so every
// delivery can be checked byte for byte against what was sent.
type payloads struct {
	flow   uint64
	size   int
	bodies [][]byte
}

func newPayloads(flowIdx int, size int, rng *rand.Rand) *payloads {
	p := &payloads{flow: uint64(flowIdx), size: size}
	for i := 0; i < 8; i++ {
		b := make([]byte, size-8)
		rng.Read(b)
		p.bodies = append(p.bodies, b)
	}
	return p
}

func (p *payloads) id(i uint64) uint64 { return p.flow<<40 | i }

func (p *payloads) make(i uint64) []byte {
	msg := make([]byte, p.size)
	binary.BigEndian.PutUint64(msg, p.id(i))
	copy(msg[8:], p.bodies[i%uint64(len(p.bodies))])
	return msg
}

// check reports whether data is exactly message i.
func (p *payloads) check(i uint64, data []byte) bool {
	return len(data) == p.size && binary.BigEndian.Uint64(data) == p.id(i) &&
		bytes.Equal(data[8:], p.bodies[i%uint64(len(p.bodies))])
}

// index extracts the message number from a delivered message's id, or
// reports that the id is not one of this flow's.
func (p *payloads) index(data []byte) (uint64, bool) {
	if len(data) < 8 {
		return 0, false
	}
	id := binary.BigEndian.Uint64(data)
	if id>>40 != p.flow {
		return 0, false
	}
	return id & (1<<40 - 1), true
}
