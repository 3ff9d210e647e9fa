package transport

import (
	"math/rand"
	"net"
	"sync"
	"time"

	"infoslicing/internal/simnet"
)

// Peer is one remote overlay host: a single TCP connection carrying frames
// from every local node toward it, exactly the paper's one-daemon-per-host
// deployment shape (each frame names its sender in the header). It owns a
// bounded outbound queue, a freelist of frame buffers, and a writer
// goroutine that does all connection work — so Enqueue never blocks, never
// dials, and in the steady state never allocates. Funneling all local
// senders through one queue is also what makes frames coalesce: the writer
// batches whatever has accumulated — across flows and senders — into one
// writev.
//
// The queue, freelist, and shutdown lifecycle live in the embedded outbox,
// shared with the datagram peer (UDPPeer); Peer adds only the TCP side:
// lazy dial with jittered backoff, writev batching, idle teardown.
type Peer struct {
	outbox
	resolve func() (string, bool)

	connHolder

	// lastDeadline is writer-goroutine-only: when the write deadline was
	// last pushed out, so steady flushes skip the per-flush timer update.
	lastDeadline time.Time
}

// NewPeer creates a peer and starts its writer. resolve is called on the
// writer goroutine at dial time (never on the data path); returning false
// means the remote address is currently unknown, which is treated like a
// failed dial: backoff and retry.
func NewPeer(resolve func() (string, bool), cfg Config) *Peer {
	cfg.fillDefaults()
	p := &Peer{
		outbox:  newOutbox(cfg),
		resolve: resolve,
	}
	go p.run(simnet.NextSeed())
	return p
}

// Close shuts the peer down gracefully: queued frames keep flushing (and
// the writer keeps trying to connect) for up to DrainTimeout before the
// connection is dropped. Blocks until the writer has exited, which the
// drain deadline bounds even against a writev wedged on a stalled
// receiver — the deadline expiry tightens the connection's write deadline
// out from under it.
func (p *Peer) Close() {
	p.closeOnce.Do(func() {
		close(p.closed)
		time.AfterFunc(p.cfg.DrainTimeout, func() {
			p.connMu.Lock()
			if p.cur != nil {
				p.cur.SetWriteDeadline(time.Now()) //nolint:errcheck
			}
			p.connMu.Unlock()
		})
	})
	<-p.done
}

// CloseNow shuts the peer down immediately: queued frames are dropped and
// any in-flight write or backoff sleep is interrupted. Used when the remote
// is known dead (churn injection, detach).
func (p *Peer) CloseNow() {
	p.immediate.Store(true)
	p.killOnce.Do(func() {
		close(p.killed)
		p.dropConn()
	})
	p.closeOnce.Do(func() { close(p.closed) })
	<-p.done
}

// connHolder holds a peer's current connection under its own lock, shared
// by the writer (dial, drop) and the shutdown paths (sever, deadline).
type connHolder struct {
	connMu sync.Mutex
	cur    net.Conn
}

func (h *connHolder) conn() net.Conn {
	h.connMu.Lock()
	defer h.connMu.Unlock()
	return h.cur
}

func (h *connHolder) setConn(c net.Conn) {
	h.connMu.Lock()
	h.cur = c
	h.connMu.Unlock()
}

func (h *connHolder) dropConn() {
	h.connMu.Lock()
	c := h.cur
	h.cur = nil
	h.connMu.Unlock()
	if c != nil {
		c.Close()
	}
}

// run is the writer: the only goroutine that dials, writes, or closes the
// peer's connection. Each wakeup takes up to MaxBatch queued entries under
// one lock and flushes them in one writev, so a burst of n frames costs
// ~n/MaxBatch syscalls instead of n.
func (p *Peer) run(jitterSeed int64) {
	defer func() {
		p.retire()
		p.dropConn()
		close(p.done)
	}()
	var (
		// The batch and iovec scratch are sized on first use: a peer that
		// only ever carries a frame or two never pays for MaxBatch slots.
		batch []outFrame
		nb    net.Buffers
		idle  *time.Timer
		// The jitter RNG is only materialized on the first backoff sleep:
		// a peer whose dials succeed never pays for seeding one (it costs a
		// 607-word table fill, visible in single-core profiles).
		rng     = &lazyRand{seed: jitterSeed}
		backoff = p.cfg.BackoffMin
	)
	for {
		var live bool
		if batch, live = p.nextBatch(batch[:0]); !live {
			return
		}
		if len(batch) > 0 {
			p.flush(batch, &nb, rng, &backoff)
			continue
		}
		if p.cfg.IdleTimeout <= 0 || p.conn() == nil {
			select {
			case <-p.wake:
			case <-p.closed:
			}
			continue
		}
		if idle == nil {
			idle = time.NewTimer(p.cfg.IdleTimeout)
		} else {
			idle.Reset(p.cfg.IdleTimeout)
		}
		select {
		case <-p.wake:
			idle.Stop()
		case <-idle.C:
			p.dropConn() // idle teardown; next frame re-dials
		case <-p.closed:
			idle.Stop()
		}
	}
}

// flush writes one batch with a single writev. Copied frames contribute
// one iovec each; owned batches contribute header‖payload pairs pointing
// straight into the caller's refcounted buffer — released (recycleBatch →
// finish) only after the writev returns, success or not. A write error
// severs the connection and drops the whole batch: a partial writev may
// have split a frame, so resuming on a fresh connection would corrupt the
// framing — every connection starts at a frame boundary.
func (p *Peer) flush(batch []outFrame, nb *net.Buffers, rng *lazyRand, backoff *time.Duration) {
	var frames int64
	for _, f := range batch {
		frames += f.frames()
	}
	c := p.ensureConn(rng, backoff)
	if c == nil {
		p.dropped.Add(frames)
		p.recycleBatch(batch)
		return
	}
	// Stall protection: a wedged receiver must fail the flush instead of
	// blocking the writer forever. Refreshing the deadline costs runtime
	// timer locks, so it is pushed out in WriteTimeout/4 steps rather than
	// per flush — the effective bound stays within [3/4, 1]×WriteTimeout.
	// While draining, the deadline is clamped to the drain deadline
	// instead: a connection dialed after Close's one-shot severing timer
	// fired must not extend the shutdown by a full WriteTimeout.
	if p.isClosed() {
		dl := time.Now().Add(p.cfg.WriteTimeout)
		if d := p.armDrain(); d.Before(dl) {
			dl = d
		}
		c.SetWriteDeadline(dl) //nolint:errcheck
		p.lastDeadline = time.Time{}
	} else if now := time.Now(); now.Sub(p.lastDeadline) > p.cfg.WriteTimeout/4 {
		c.SetWriteDeadline(now.Add(p.cfg.WriteTimeout)) //nolint:errcheck
		p.lastDeadline = now
	}
	*nb = (*nb)[:0]
	for _, f := range batch {
		if f.ob != nil {
			for i, b := range f.ob.bufs {
				*nb = append(*nb, f.ob.hdrs[i*HeaderLen:(i+1)*HeaderLen], b)
			}
		} else {
			*nb = append(*nb, f.buf)
		}
	}
	n, err := nb.WriteTo(c)
	p.bytesOut.Add(n)
	if err != nil {
		p.sendFailures.Add(1)
		p.dropped.Add(frames)
		p.dropConn()
	} else {
		p.flushes.Add(1)
		p.framesOut.Add(frames)
	}
	p.recycleBatch(batch)
}

// ensureConn returns the live connection, dialing (with jittered
// exponential backoff between attempts) if there is none. It gives up —
// returning nil — only when the peer is closing: immediately for CloseNow,
// at the drain deadline for a graceful Close (armed here if this dial loop
// is where the close is first observed, so a batch in hand when Close
// lands still gets its full drain grace to find a connection).
func (p *Peer) ensureConn(rng *lazyRand, backoff *time.Duration) net.Conn {
	if c := p.conn(); c != nil {
		return c
	}
	hadConn := p.dials.Load() > 0
	for {
		if p.immediate.Load() {
			return nil
		}
		if p.isClosed() && time.Now().After(p.armDrain()) {
			return nil
		}
		if addr, ok := p.resolve(); ok {
			if c, err := net.DialTimeout("tcp", addr, p.cfg.DialTimeout); err == nil {
				*backoff = p.cfg.BackoffMin
				p.setConn(c)
				p.lastDeadline = time.Time{} // fresh conn: no deadline yet
				p.dials.Add(1)
				if hadConn {
					p.reconnects.Add(1)
				}
				if p.immediate.Load() {
					// Lost the race with CloseNow's dropConn: do not hand
					// a conn back to a writer that is about to exit.
					p.dropConn()
					return nil
				}
				return c
			}
		}
		if !p.sleepBackoff(rng, backoff) {
			return nil
		}
	}
}

// lazyRand defers seeding a math/rand generator until the first draw.
type lazyRand struct {
	seed int64
	rng  *rand.Rand
}

func (l *lazyRand) Int63n(n int64) int64 {
	if l.rng == nil {
		l.rng = rand.New(rand.NewSource(l.seed))
	}
	return l.rng.Int63n(n)
}
