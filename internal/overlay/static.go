package overlay

import (
	"fmt"
	"net"
	"sync"

	"infoslicing/internal/simnet"
	"infoslicing/internal/transport"
	"infoslicing/internal/wire"
)

// ErrSendQueueFull re-exports the peer layer's advisory drop error: the
// frame was shed at a full per-peer queue. Callers on the data path count
// it (relay Stats.SendDrops); datagram semantics mean nothing else changes.
var ErrSendQueueFull = transport.ErrQueueFull

// staticCore is the one static-socket transport: every overlay node has a
// listen address in an id→address book, so independent processes — one
// relay daemon per process, as in the paper's PlanetLab deployment
// (§7.1) — can form one overlay. Framing is 4-byte length, 4-byte sender
// id, payload, over a stream (StaticTCP) or inside each datagram
// (StaticUDP); the two flavours differ only in their listener and their
// peer constructor.
//
// Attach policy: an id with a book entry binds its book address; any other
// id binds a fresh loopback port that is recorded in this process's book —
// resolvable by every node sharing the transport, but not by other
// processes — and erased again on Detach. With an empty book every node is
// of the second kind: the whole overlay on 127.0.0.1 (NewTCPNetwork,
// NewUDPNetwork).
//
// Only the nodes attached in this process listen; Send reaches any node in
// the book, local or remote, or an endpoint the registry learned from
// inbound traffic. Each remote host gets ONE peer — a bounded queue, a
// batching writer, reconnect-with-backoff — shared by every local sender
// (frames carry their sender in the header), which is what batches writes
// across flows and lets a transfer ride out a peer process being killed
// and restarted.
type staticCore struct {
	mu     sync.RWMutex
	book   map[wire.NodeID]string
	local  map[wire.NodeID]*staticEndpoint
	down   map[wire.NodeID]bool
	peers  *transport.PeerSet
	reg    *endpointRegistry
	closed bool

	// listen binds a socket at addr and wraps it in the flavour's
	// acceptor, not yet started.
	listen func(addr string, deliver transport.Deliver) (acceptor, error)
}

// acceptor is what the core needs from a flavour's listener: the two-phase
// start that closes the attach race, its bound address, and shutdown.
type acceptor interface {
	Start()
	Addr() string
	Close()
}

type staticEndpoint struct {
	acc acceptor
	// ephemeral marks an id the book had no address for: its loopback
	// port is meaningless once detached, so Detach erases it from the book
	// (a pre-agreed entry survives detach — the process may come back).
	ephemeral bool
}

func (s *staticCore) init(book map[wire.NodeID]string, clock simnet.Clock, peers *transport.PeerSet,
	listen func(addr string, deliver transport.Deliver) (acceptor, error)) {
	s.book = make(map[wire.NodeID]string, len(book))
	for id, addr := range book {
		s.book[id] = addr
	}
	s.local = make(map[wire.NodeID]*staticEndpoint)
	s.down = make(map[wire.NodeID]bool)
	s.peers = peers
	s.reg = newEndpointRegistry(clock)
	s.listen = listen
}

// StaticTCP is the stream flavour of the static-socket transport, riding
// the peer core of internal/transport: per-host bounded queues, batched
// writev writers, reconnect with backoff, slab-based zero-copy readers.
type StaticTCP struct{ staticCore }

// NewStaticTCP creates a TCP transport over the given id→address book.
func NewStaticTCP(book map[wire.NodeID]string) *StaticTCP {
	s := &StaticTCP{}
	s.init(book, nil, transport.NewPeerSet(transport.Config{}),
		func(addr string, deliver transport.Deliver) (acceptor, error) {
			ln, err := net.Listen("tcp", addr)
			if err != nil {
				return nil, err
			}
			acc := transport.NewAcceptor(ln, transport.DefaultMaxFrame, deliver)
			acc.OnSender = s.observeSender
			return acc, nil
		})
	return s
}

// NewTCPNetwork creates a TCP overlay with an empty book: every node binds
// a loopback port on Attach.
func NewTCPNetwork() *StaticTCP { return NewStaticTCP(nil) }

// observeSender feeds the learned endpoint registry from an acceptor's
// first-frame observations. Book entries are never shadowed (static wins);
// a learned address that moved invalidates the cached peer so the next
// Send re-resolves.
func (s *staticCore) observeSender(id wire.NodeID, addr string) {
	s.mu.RLock()
	_, inBook := s.book[id]
	s.mu.RUnlock()
	if inBook {
		return
	}
	if s.reg.observe(id, addr) {
		s.peers.Drop(func(to wire.NodeID) bool { return to == id })
	}
}

// LearnedEndpoints reports how many sender endpoints the registry currently
// holds (ids absent from the book, learned from inbound traffic).
func (s *staticCore) LearnedEndpoints() int { return s.reg.size() }

// Attach implements Transport under the attach policy (see staticCore): a
// book id binds its book address, any other id a fresh loopback port.
func (s *staticCore) Attach(id wire.NodeID, h Handler) error {
	s.mu.RLock()
	addr, inBook := s.book[id]
	_, dup := s.local[id]
	s.mu.RUnlock()
	if dup {
		return fmt.Errorf("%w: %d", ErrDuplicateNode, id)
	}
	if !inBook {
		addr = "127.0.0.1:0"
	}
	ep := &staticEndpoint{ephemeral: !inBook}
	acc, err := s.listen(addr, func(from wire.NodeID, data []byte) bool {
		s.mu.RLock()
		cur := s.local[id]
		isDown := s.down[id] || s.down[from]
		s.mu.RUnlock()
		if cur != ep {
			return false // detached or superseded: stop this read loop
		}
		if !isDown {
			// A crashed receiver or sender (churn injection) discards.
			h(from, data)
		}
		return true
	})
	if err != nil {
		return fmt.Errorf("overlay: %w", err)
	}
	ep.acc = acc
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		acc.Close()
		return ErrNodeDown
	}
	if _, dup := s.local[id]; dup {
		s.mu.Unlock()
		acc.Close()
		return fmt.Errorf("%w: %d", ErrDuplicateNode, id)
	}
	s.local[id] = ep
	s.book[id] = acc.Addr()
	s.mu.Unlock()
	// Accept only after the endpoint is published: a reconnecting peer's
	// first frames must find the liveness check already true, not get
	// their fresh connection dropped by the attach race.
	acc.Start()
	return nil
}

// Addr returns a node's listen address: the bound address of a local
// node, else its book entry (diagnostics).
func (s *staticCore) Addr(id wire.NodeID) (string, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	addr, ok := s.book[id]
	return addr, ok
}

// Detach implements Transport.
func (s *staticCore) Detach(id wire.NodeID) {
	s.mu.Lock()
	ep := s.local[id]
	delete(s.local, id)
	if ep != nil && ep.ephemeral {
		delete(s.book, id)
	}
	s.mu.Unlock()
	s.peers.Drop(func(to wire.NodeID) bool { return to == id })
	if ep != nil {
		ep.acc.Close()
	}
}

// Fail crashes a node in this process (churn injection for single-process
// deployments): its inbound frames are discarded, its sends error, and
// frames it already queued on shared host connections are discarded at
// delivery. Cross-process churn is injected by killing the process.
func (s *staticCore) Fail(id wire.NodeID) {
	s.mu.Lock()
	s.down[id] = true
	s.mu.Unlock()
}

// Revive restores a failed node.
func (s *staticCore) Revive(id wire.NodeID) {
	s.mu.Lock()
	delete(s.down, id)
	s.mu.Unlock()
}

// Down reports whether the node is marked failed, or the book has no
// address for it. Local nodes are always in the book, so a detached
// in-process node is down and a remote book node is not.
func (s *staticCore) Down(id wire.NodeID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.book[id]
	return !ok || s.down[id]
}

// resolve is the shared first half of Send and SendOwned: a nil peer means
// the frame goes nowhere, with err saying why (nil for a closed transport
// or an unknown receiver: datagram semantics, not congestion — callers
// must not count it toward SendDrops). The steady state is one read-locked
// check and one PeerSet lookup; the resolver closure that creating a peer
// needs (it escapes, one allocation) is built only on the miss.
func (s *staticCore) resolve(from, to wire.NodeID) (transport.Link, error) {
	s.mu.RLock()
	_, known := s.book[to]
	isDown := s.down[from]
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		return nil, nil
	}
	if isDown {
		return nil, fmt.Errorf("%w: %d", ErrNodeDown, from)
	}
	if !known {
		// Not in the book: a learned endpoint may still resolve it (the
		// registry only ever holds ids the book lacks, so there is no
		// precedence question on this path).
		if _, ok := s.reg.learned(to); !ok {
			return nil, nil
		}
	}
	if p := s.peers.Lookup(to); p != nil {
		return p, nil
	}
	// Get returns nil once the peer set is closed: a nil, nil result.
	return s.peers.Get(to, func() (string, bool) {
		s.mu.RLock()
		addr, ok := s.book[to]
		s.mu.RUnlock()
		if ok {
			return addr, true
		}
		return s.reg.learned(to)
	}), nil
}

// shed reports a refused enqueue: ErrSendQueueFull, unless the queue
// "filled" because Close reaped it — then the frame is a datagram into the
// void and the peer core's dead-then-reap ordering guarantees nothing
// strands.
func (s *staticCore) shed() error {
	s.mu.RLock()
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		return nil
	}
	return ErrSendQueueFull
}

// Send implements Transport: resolve the receiver, stamp the frame with
// its sender, hand it to the receiver's host peer. Never blocks, never
// dials on this path; a full peer queue drops and returns ErrSendQueueFull
// (advisory).
func (s *staticCore) Send(from, to wire.NodeID, data []byte) error {
	p, err := s.resolve(from, to)
	if p == nil {
		return err
	}
	if !p.Enqueue(from, data) {
		return s.shed()
	}
	return nil
}

// SendOwned implements OwnedSender: the same checks and resolution as
// Send, but the burst goes to the peer by reference — the stream writer
// builds header‖payload iovecs straight over bufs, the datagram packer
// copies them into datagram buffers — and release fires when the batch is
// flushed, packed or dropped. Paths that never reach the peer consume
// release here; EnqueueOwned consumes it on every path of its own, so it
// fires exactly once regardless.
func (s *staticCore) SendOwned(from, to wire.NodeID, bufs [][]byte, release func()) error {
	p, err := s.resolve(from, to)
	if p == nil {
		release()
		return err
	}
	if !p.EnqueueOwned(from, bufs, release) {
		return s.shed()
	}
	return nil
}

// PeerStats reports aggregate outbound peer counters.
func (s *staticCore) PeerStats() transport.Stats { return s.peers.Stats() }

// Stats implements Transport with the unified counter vocabulary: frames
// out, bytes out, frames shed locally (queue drops, failed flushes, drain
// cutoffs). Retransmissions is structurally zero: neither flavour
// retransmits; UDP wire loss lives in StaticUDP.UDPStats.
func (s *staticCore) Stats() TransportStats {
	st := s.peers.Stats()
	return TransportStats{
		Packets:      st.FramesOut,
		Bytes:        st.BytesOut,
		Lost:         st.Dropped,
		SendFailures: st.SendFailures,
		Reconnects:   st.Reconnects,
	}
}

// Close shuts down peers (draining queued frames briefly) and the
// listeners owned by this process.
func (s *staticCore) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	local := s.local
	s.local = map[wire.NodeID]*staticEndpoint{}
	s.mu.Unlock()
	s.peers.Close()
	for _, ep := range local {
		ep.acc.Close()
	}
}
