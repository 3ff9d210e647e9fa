package overlay

import (
	"math/rand"
	"net"
	"sync"
	"time"

	"infoslicing/internal/simnet"
	"infoslicing/internal/transport"
	"infoslicing/internal/wire"
)

// StaticUDP is the datagram flavour of the static-socket transport, riding
// the congestion-controlled datagram peer layer (internal/transport
// UDPPeer/UDPAcceptor: per-host bounded queues, sendmmsg-batched writers
// paced by a CUBIC window over the transport's ack/echo channel,
// recvmmsg-batched readers). Framing inside each datagram matches the TCP
// stream byte-for-byte; a frame never splits across datagrams.
//
// Loss is handled by the slicing protocol, not the transport: a lost
// datagram is never retransmitted. What the transport contributes is
// MEASUREMENT — per-destination smoothed loss rates from the ack channel —
// surfaced through AddLossWatcher so the facade can escalate persistent
// loss beyond the redundancy budget to splice repair.
type StaticUDP struct {
	staticCore

	watchMu  sync.Mutex
	watchSeq int
	watchers map[int]lossWatcher
}

type lossWatcher struct {
	threshold float64
	f         func(to wire.NodeID, rate float64)
}

// UDPOptions tunes a StaticUDP beyond the address book.
type UDPOptions struct {
	// Loss injects an independent drop probability on every endpoint's
	// inbound datagrams (data and acks): a socket-level netem shim for
	// loss experiments. Zero means no injected loss.
	Loss float64
	// Seed seeds the injected-loss RNG (0: derived from the process base
	// seed via simnet, so failing runs replay).
	Seed int64
	// Config overrides the datagram peer/acceptor tuning; zero values keep
	// the defaults. RxDrop and OnLoss are owned by the transport and
	// ignored here.
	Config transport.UDPConfig
}

// NewStaticUDP creates a UDP transport over the given id→address book.
func NewStaticUDP(book map[wire.NodeID]string, opts UDPOptions) *StaticUDP {
	ucfg := opts.Config
	ucfg.RxDrop = nil
	ucfg.OnLoss = nil
	lossy := opts.Loss > 0
	if lossy {
		seed := opts.Seed
		if seed == 0 {
			seed = simnet.NextSeed()
		}
		var rngMu sync.Mutex
		rng := rand.New(rand.NewSource(seed))
		loss := opts.Loss
		ucfg.RxDrop = func() bool {
			rngMu.Lock()
			drop := rng.Float64() < loss
			rngMu.Unlock()
			return drop
		}
	}
	s := &StaticUDP{watchers: make(map[int]lossWatcher)}
	peers := transport.NewLinkSet(func(to wire.NodeID, resolve func() (string, bool)) transport.Link {
		cfg := transport.Config{}
		if lossy {
			// The shim rolls the Bernoulli die once per datagram, so run
			// one frame per datagram while it is active: that makes the
			// injected loss independent per slice, matching a WAN where
			// distinct senders' slices arrive in distinct datagrams. With
			// normal batching a multi-attach loopback run would coalesce
			// several senders' slices of the same round into one datagram
			// and a single drop could erase more redundancy than the d'−d
			// budget is sized for. Lossless runs keep full batching.
			cfg.MaxBatch = 1
		}
		pucfg := ucfg
		pucfg.OnLoss = func(rate float64) { s.reportLoss(to, rate) }
		return transport.NewUDPPeer(resolve, cfg, pucfg)
	})
	s.init(book, ucfg.Clock, peers, func(addr string, deliver transport.Deliver) (acceptor, error) {
		la, err := net.ResolveUDPAddr("udp", addr)
		if err != nil {
			return nil, err
		}
		conn, err := net.ListenUDP("udp", la)
		if err != nil {
			return nil, err
		}
		aucfg := ucfg
		aucfg.OnSender = s.observeSender
		return transport.NewUDPAcceptor(conn, transport.DefaultMaxFrame, aucfg, deliver), nil
	})
	return s
}

// NewUDPNetwork creates a UDP overlay with an empty book: every node binds
// a loopback port on Attach.
func NewUDPNetwork(opts UDPOptions) *StaticUDP { return NewStaticUDP(nil, opts) }

// AddLossWatcher implements LossReporter: f fires (rate-limited by the
// peer layer, off the data path) whenever the smoothed datagram loss rate
// toward some destination exceeds threshold. The returned func removes the
// watcher.
func (s *StaticUDP) AddLossWatcher(threshold float64, f func(to wire.NodeID, rate float64)) (remove func()) {
	s.watchMu.Lock()
	s.watchSeq++
	id := s.watchSeq
	s.watchers[id] = lossWatcher{threshold: threshold, f: f}
	s.watchMu.Unlock()
	return func() {
		s.watchMu.Lock()
		delete(s.watchers, id)
		s.watchMu.Unlock()
	}
}

func (s *StaticUDP) reportLoss(to wire.NodeID, rate float64) {
	s.watchMu.Lock()
	var fire []func(to wire.NodeID, rate float64)
	for _, w := range s.watchers {
		if rate > w.threshold {
			fire = append(fire, w.f)
		}
	}
	s.watchMu.Unlock()
	for _, f := range fire {
		f(to, rate)
	}
}

// SendDelay implements CongestionAdvisor: the destination peer's estimate
// of how long to hold the next burst (zero when its window has room or the
// peer does not exist yet).
func (s *StaticUDP) SendDelay(to wire.NodeID, bytes int) time.Duration {
	p, _ := s.peers.Lookup(to).(*transport.UDPPeer)
	if p == nil {
		return 0
	}
	return p.SendDelay(bytes)
}

// UDPStats sums the datagram-specific counters over every live peer
// (Window is summed; SRTT and LossRate are the per-peer maxima).
func (s *StaticUDP) UDPStats() transport.UDPPeerStats {
	var tot transport.UDPPeerStats
	s.peers.Each(func(_ wire.NodeID, p transport.Link) {
		if up, ok := p.(*transport.UDPPeer); ok {
			tot.Add(up.UDPStats())
		}
	})
	return tot
}
