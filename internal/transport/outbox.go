package transport

import (
	"sync"
	"sync/atomic"
	"time"

	"infoslicing/internal/wire"
)

// outFrame is one outbound queue entry: either a copied frame (buf, from
// the freelist, header already prepended) or an owned batch of frames
// sharing one refcounted backing buffer (ob). Exactly one of the two is
// set.
type outFrame struct {
	buf []byte
	ob  *ownedBatch
}

// frames reports how many wire frames the entry carries (an owned batch
// counts each of its frames; stats stay in frame units either way).
func (f outFrame) frames() int64 {
	if f.ob != nil {
		return int64(len(f.ob.bufs))
	}
	return 1
}

// ownedBatch carries a burst of frames toward one peer by reference: the
// payload views stay in the caller's refcounted buffer, release gives the
// reference back, and hdrs is a pre-built arena of 8-byte wire headers
// (one per frame) so the TCP writer can writev header‖payload pairs
// without copying either. Pooled via outbox.freeOB.
type ownedBatch struct {
	from    wire.NodeID
	bufs    [][]byte
	release func()
	hdrs    []byte
}

// outbox is the transport-agnostic half of a peer: the bounded outbound
// frame queue, the freelists of frame buffers and batch envelopes, and the
// shutdown lifecycle (graceful drain vs immediate kill). The TCP Peer and
// the UDPPeer embed it and add only their wire I/O — stream writev on one
// side, congestion-controlled sendmmsg on the other — so Enqueue
// semantics, drop accounting, and Close behaviour are identical across
// transports by construction.
type outbox struct {
	cfg Config

	// mu guards the queue, both freelists and dead. Everything behind it
	// grows on use — a peer that carries one frame costs one small ring
	// slot and one buffer, not QueueDepth of each — and never past the
	// caps the channels it replaced had: QueueDepth queued entries,
	// QueueDepth+MaxBatch free frame buffers, QueueDepth free envelopes.
	mu     sync.Mutex
	q      frameRing     // framed buffers / owned batches awaiting the writer
	free   [][]byte      // recycled copied-frame buffers
	freeOB []*ownedBatch // recycled owned-batch envelopes
	// dead is set by the writer, under mu, just before its final queue
	// reap; Enqueue checks it under the same lock, so a frame either lands
	// before the reap (and is reaped) or is refused: none is stranded.
	dead bool
	// wake is the writer's parking signal: an enqueue that makes the queue
	// non-empty drops a token here. One slot suffices because the writer
	// only parks after finding the queue empty under mu.
	wake chan struct{}

	// closed signals shutdown (writer drains then exits); killed is the
	// immediate variant (CloseNow) that also interrupts backoff sleeps.
	closed    chan struct{}
	killed    chan struct{}
	closeOnce sync.Once
	killOnce  sync.Once
	immediate atomic.Bool
	done      chan struct{}

	// drainBy is writer-goroutine-only: the drain deadline, armed by
	// whichever writer code path first observes a graceful close — the
	// run loop, a dial-retry loop, or a backoff sleep — so frames in hand
	// when Close lands keep flushing (and dialing) for the full grace.
	drainBy time.Time

	enqueued     atomic.Int64
	dropped      atomic.Int64
	sendFailures atomic.Int64
	flushes      atomic.Int64
	framesOut    atomic.Int64
	bytesOut     atomic.Int64
	dials        atomic.Int64
	reconnects   atomic.Int64
}

func newOutbox(cfg Config) outbox {
	return outbox{
		cfg:    cfg,
		wake:   make(chan struct{}, 1),
		closed: make(chan struct{}),
		killed: make(chan struct{}),
		done:   make(chan struct{}),
	}
}

// Enqueue frames data (header ‖ payload, stamped with the sending node)
// into the outbound queue. It never blocks: a full queue — or a closed peer
// — drops the frame, counts it, and returns false. data is copied before
// return and may be reused by the caller immediately.
func (o *outbox) Enqueue(from wire.NodeID, data []byte) bool {
	if len(data) > o.cfg.MaxFrame || o.isClosed() {
		o.dropped.Add(1)
		return false
	}
	o.mu.Lock()
	if o.dead || o.q.n >= o.cfg.QueueDepth {
		o.mu.Unlock()
		o.dropped.Add(1)
		return false
	}
	buf := popLast(&o.free)
	var hdr [HeaderLen]byte
	putHeader(hdr[:], from, len(data))
	buf = append(buf[:0], hdr[:]...)
	buf = append(buf, data...)
	o.push(outFrame{buf: buf})
	return true
}

// EnqueueOwned hands a burst of frames toward this peer by reference: the
// byte slices in bufs stay owned by the caller's refcounted buffer, and
// release is consumed exactly once on EVERY path — after the writer
// flushes or drops the batch, or right here when the queue is full, the
// peer is closed, or a frame exceeds MaxFrame (all-or-nothing: either the
// whole burst is queued as one transaction or none of it is). Like
// Enqueue it never blocks; false means the burst was shed and counted.
func (o *outbox) EnqueueOwned(from wire.NodeID, bufs [][]byte, release func()) bool {
	n := int64(len(bufs))
	if n == 0 {
		release()
		return true
	}
	if o.isClosed() {
		release()
		o.dropped.Add(n)
		return false
	}
	for _, b := range bufs {
		if len(b) > o.cfg.MaxFrame {
			release()
			o.dropped.Add(n)
			return false
		}
	}
	o.mu.Lock()
	if o.dead || o.q.n >= o.cfg.QueueDepth {
		o.mu.Unlock()
		release()
		o.dropped.Add(n)
		return false
	}
	ob := popLast(&o.freeOB)
	if ob == nil {
		ob = &ownedBatch{}
	}
	ob.from = from
	ob.bufs = append(ob.bufs[:0], bufs...)
	ob.release = release
	ob.hdrs = ob.hdrs[:0]
	for _, b := range bufs {
		var hdr [HeaderLen]byte
		putHeader(hdr[:], from, len(b))
		ob.hdrs = append(ob.hdrs, hdr[:]...)
	}
	o.push(outFrame{ob: ob})
	return true
}

// popLast removes and returns a freelist's last element, or the zero
// value when the list is empty.
func popLast[T any](list *[]T) T {
	var v, zero T
	if n := len(*list); n > 0 {
		v = (*list)[n-1]
		(*list)[n-1] = zero
		*list = (*list)[:n-1]
	}
	return v
}

// push appends an entry the caller has admitted (mu held, queue below
// QueueDepth), releases mu, counts the entry and wakes the writer if the
// queue was empty.
func (o *outbox) push(f outFrame) {
	frames := f.frames() // the writer owns f once mu drops
	o.q.push(f, o.cfg.QueueDepth)
	first := o.q.n == 1
	o.mu.Unlock()
	o.enqueued.Add(frames)
	if first {
		select {
		case o.wake <- struct{}{}:
		default:
		}
	}
}

// take moves up to MaxBatch queued entries, oldest first, onto batch under
// one lock acquisition.
func (o *outbox) take(batch []outFrame) []outFrame {
	o.mu.Lock()
	batch = o.q.take(batch, o.cfg.MaxBatch)
	o.mu.Unlock()
	return batch
}

// nextBatch is the writer's dequeue and the shutdown ladder both writers
// share. It returns the next batch and true; an empty batch with true
// means nothing is queued and the writer should park (on wake or closed)
// and call again. It returns false when the writer must exit: killed,
// drained after a graceful Close, or past the drain deadline (the batch in
// hand is dropped; the writer's final reap discards the rest).
func (o *outbox) nextBatch(batch []outFrame) ([]outFrame, bool) {
	if !o.isClosed() {
		return o.take(batch), true
	}
	if o.immediate.Load() {
		return batch, false
	}
	// Flushing (dialing included) continues until the drain deadline
	// passes or the queue empties.
	deadline := o.armDrain()
	batch = o.take(batch)
	if len(batch) == 0 {
		return batch, false // queue drained; graceful exit
	}
	if time.Now().After(deadline) {
		for _, f := range batch {
			o.dropped.Add(f.frames())
		}
		o.recycleBatch(batch)
		return batch[:0], false
	}
	return batch, true
}

// retire is the writer's last act: dead, then reap, strictly in this
// order. Enqueue checks dead under the queue lock, so a frame that slips
// in during exit is either reaped here or refused there — never stranded
// (the Close-race tests pin this).
func (o *outbox) retire() {
	o.mu.Lock()
	o.dead = true
	o.mu.Unlock()
	o.discardQueue()
}

// recycleBatch returns a dequeued batch's resources and clears its
// slots: each owned batch's release fires exactly once (outside the lock,
// since it is the caller's code) and its payload views are unpinned; then
// frame buffers and envelopes go back to the freelists under one lock.
func (o *outbox) recycleBatch(batch []outFrame) {
	for _, f := range batch {
		if ob := f.ob; ob != nil {
			ob.release()
			ob.release = nil
			clear(ob.bufs)
			ob.bufs = ob.bufs[:0]
			ob.from = 0
		}
	}
	o.mu.Lock()
	for i, f := range batch {
		if f.ob != nil {
			if len(o.freeOB) < o.cfg.QueueDepth {
				o.freeOB = append(o.freeOB, f.ob)
			}
		} else if len(o.free) < o.cfg.QueueDepth+o.cfg.MaxBatch {
			o.free = append(o.free, f.buf)
		}
		batch[i] = outFrame{}
	}
	o.mu.Unlock()
}

// QueueLen reports how many entries are currently queued (diagnostics);
// an owned batch is one entry.
func (o *outbox) QueueLen() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.q.n
}

// Stats snapshots the peer's counters.
func (o *outbox) Stats() Stats {
	return Stats{
		Enqueued:     o.enqueued.Load(),
		Dropped:      o.dropped.Load(),
		SendFailures: o.sendFailures.Load(),
		Flushes:      o.flushes.Load(),
		FramesOut:    o.framesOut.Load(),
		BytesOut:     o.bytesOut.Load(),
		Dials:        o.dials.Load(),
		Reconnects:   o.reconnects.Load(),
	}
}

func (o *outbox) isClosed() bool {
	select {
	case <-o.closed:
		return true
	default:
		return false
	}
}

// armDrain returns the drain deadline, starting the grace window on first
// call. Writer-goroutine only; callers have already observed o.closed.
func (o *outbox) armDrain() time.Time {
	if o.drainBy.IsZero() {
		o.drainBy = time.Now().Add(o.cfg.DrainTimeout)
	}
	return o.drainBy
}

// sleepBackoff sleeps the current backoff (±50% jitter, so a fleet of
// peers re-dialing a restarted node does not thundering-herd it), then
// doubles it up to BackoffMax. Returns false if the peer was killed.
// During a drain the sleep is clamped to the drain deadline; outside one,
// a graceful Close wakes the sleep early (once — the caller re-evaluates
// and enters drain mode) so shutdown never waits out a full backoff.
func (o *outbox) sleepBackoff(rng *lazyRand, backoff *time.Duration) bool {
	d := *backoff
	d = d/2 + time.Duration(rng.Int63n(int64(d)))
	*backoff *= 2
	if *backoff > o.cfg.BackoffMax {
		*backoff = o.cfg.BackoffMax
	}
	draining := o.isClosed()
	if draining {
		if rem := time.Until(o.armDrain()); rem < d {
			d = rem
		}
		if d <= 0 {
			return false
		}
	}
	t := time.NewTimer(d)
	defer t.Stop()
	if draining {
		// closed is already readable; selecting on it would busy-spin.
		select {
		case <-t.C:
			return true
		case <-o.killed:
			return false
		}
	}
	select {
	case <-t.C:
		return true
	case <-o.closed:
		return true
	case <-o.killed:
		return false
	}
}

// discardQueue empties the outbound queue, counting everything as dropped
// (in frame units) and releasing owned batches.
func (o *outbox) discardQueue() {
	var one [1]outFrame
	for {
		o.mu.Lock()
		batch := o.q.take(one[:0], 1)
		o.mu.Unlock()
		if len(batch) == 0 {
			return
		}
		o.dropped.Add(batch[0].frames())
		o.recycleBatch(batch)
	}
}

// frameRing is the outbound FIFO: a ring buffer that starts empty and
// doubles on demand up to the queue depth, so its footprint follows the
// deepest backlog the peer has actually seen.
type frameRing struct {
	buf  []outFrame
	head int // index of the oldest entry
	n    int // entries queued
}

// push appends f; the caller has checked n < limit.
func (r *frameRing) push(f outFrame, limit int) {
	if r.n == len(r.buf) {
		size := 2 * len(r.buf)
		if size < 4 {
			size = 4
		}
		if size > limit {
			size = limit
		}
		grown := make([]outFrame, size)
		copied := copy(grown, r.buf[r.head:])
		copy(grown[copied:], r.buf[:r.head])
		r.buf, r.head = grown, 0
	}
	i := r.head + r.n
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	r.buf[i] = f
	r.n++
}

// take appends up to k entries, oldest first, to dst and clears their
// slots so the ring pins no buffer it no longer holds.
func (r *frameRing) take(dst []outFrame, k int) []outFrame {
	for ; k > 0 && r.n > 0; k-- {
		dst = append(dst, r.buf[r.head])
		r.buf[r.head] = outFrame{}
		r.head++
		if r.head == len(r.buf) {
			r.head = 0
		}
		r.n--
	}
	return dst
}
