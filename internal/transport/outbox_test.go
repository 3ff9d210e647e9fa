package transport

import (
	"bytes"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"infoslicing/internal/simnet"
	"infoslicing/internal/wire"
)

// bareOutbox is an outbox with no writer goroutine: the test is the only
// consumer, so queue contents are exactly what the enqueues left.
func bareOutbox(depth int) *outbox {
	cfg := Config{QueueDepth: depth}
	cfg.fillDefaults()
	o := newOutbox(cfg)
	return &o
}

// TestOutboxShedsAtQueueDepth: the queue accepts exactly QueueDepth
// entries, sheds and counts the next one, and accepts again once the
// writer has taken one.
func TestOutboxShedsAtQueueDepth(t *testing.T) {
	const depth = 5 // not a power of two: the ring's last growth step is clipped
	o := bareOutbox(depth)
	for i := 0; i < depth; i++ {
		if !o.Enqueue(1, []byte{byte(i)}) {
			t.Fatalf("frame %d of %d shed", i+1, depth)
		}
	}
	if o.Enqueue(1, []byte{depth}) {
		t.Fatalf("frame %d accepted past QueueDepth %d", depth+1, depth)
	}
	if st := o.Stats(); st.Enqueued != depth || st.Dropped != 1 {
		t.Fatalf("stats = %+v, want %d enqueued and 1 dropped", st, depth)
	}
	if got := o.QueueLen(); got != depth {
		t.Fatalf("QueueLen = %d, want %d", got, depth)
	}
	var one [1]outFrame
	o.recycleBatch(o.q.take(one[:0], 1))
	if !o.Enqueue(1, []byte{depth}) {
		t.Fatal("frame shed after the writer freed a slot")
	}
}

// TestOutboxFIFOAcrossCopiedAndOwned interleaves copied frames and owned
// batches with partial takes, so the ring wraps and grows while wrapped:
// every frame must leave in the order it was enqueued.
func TestOutboxFIFOAcrossCopiedAndOwned(t *testing.T) {
	o := bareOutbox(64)
	next := byte(0) // label of the next frame to enqueue
	want := byte(0) // label of the next frame to leave
	releases := 0
	enqueue := func() {
		if next%3 == 2 {
			bufs := [][]byte{{next}, {next + 1}}
			if !o.EnqueueOwned(7, bufs, func() { releases++ }) {
				t.Fatal("owned batch shed below QueueDepth")
			}
			next += 2
			return
		}
		if !o.Enqueue(7, []byte{next}) {
			t.Fatal("frame shed below QueueDepth")
		}
		next++
	}
	check := func(payload []byte) {
		t.Helper()
		if len(payload) != 1 || payload[0] != want {
			t.Fatalf("frame %v left out of order, want label %d", payload, want)
		}
		want++
	}
	take := func(k int) {
		for _, f := range o.q.take(nil, k) {
			if f.ob != nil {
				for _, b := range f.ob.bufs {
					check(b)
				}
			} else {
				if got := f.buf[:HeaderLen]; !bytes.Equal(got, frameHeader(7, 1)) {
					t.Fatalf("copied frame header %x", got)
				}
				check(f.buf[HeaderLen:])
			}
			o.recycleBatch([]outFrame{f})
		}
	}
	for round := 0; round < 12; round++ {
		for i := 0; i < round+3; i++ {
			enqueue()
		}
		take(round + 1)
	}
	take(64)
	if want != next {
		t.Fatalf("%d frames left, want %d", want, next)
	}
	if o.QueueLen() != 0 {
		t.Fatalf("QueueLen = %d after draining", o.QueueLen())
	}
	if releases == 0 {
		t.Fatal("no owned batch was released")
	}
}

func frameHeader(from wire.NodeID, n int) []byte {
	var hdr [HeaderLen]byte
	putHeader(hdr[:], from, n)
	return hdr[:]
}

// TestOwnedReleaseOncePerPath: an owned batch's release fires exactly
// once whether it is shed at a full queue, refused by a closed peer,
// refused after the writer retired, or reaped from the queue by retire.
func TestOwnedReleaseOncePerPath(t *testing.T) {
	bufs := [][]byte{[]byte("x"), []byte("y")}
	counter := func() (func(), *int) {
		n := 0
		return func() { n++ }, &n
	}
	t.Run("full", func(t *testing.T) {
		o := bareOutbox(1)
		o.Enqueue(1, []byte("fill"))
		rel, n := counter()
		if o.EnqueueOwned(1, bufs, rel) || *n != 1 {
			t.Fatalf("full queue: released %d times, want once and shed", *n)
		}
		if st := o.Stats(); st.Dropped != 2 {
			t.Fatalf("Dropped = %d, want 2 (frame units)", st.Dropped)
		}
	})
	t.Run("closed", func(t *testing.T) {
		o := bareOutbox(4)
		close(o.closed)
		rel, n := counter()
		if o.EnqueueOwned(1, bufs, rel) || *n != 1 {
			t.Fatalf("closed peer: released %d times, want once and shed", *n)
		}
	})
	t.Run("dead", func(t *testing.T) {
		o := bareOutbox(4)
		queued, nq := counter()
		if !o.EnqueueOwned(1, bufs, queued) {
			t.Fatal("owned batch shed by an idle queue")
		}
		o.retire()
		if *nq != 1 {
			t.Fatalf("retire released a queued batch %d times, want once", *nq)
		}
		late, nl := counter()
		if o.EnqueueOwned(1, bufs, late) || *nl != 1 {
			t.Fatalf("after retire: released %d times, want once and shed", *nl)
		}
		o.retire()
		if *nq != 1 || *nl != 1 {
			t.Fatalf("second reap re-released: %d, %d", *nq, *nl)
		}
	})
}

// TestConnCycleAllocBudget pins the per-connection cost: dialing a peer,
// carrying one 64-byte frame, and closing both ends allocates at most
// 8 KiB in total — writer, reader, and the sockets included — where the
// eager queue channels and the fixed 64 KiB reader slab cost ~100 KiB.
func TestConnCycleAllocBudget(t *testing.T) {
	s := &sink{}
	acc, err := Listen("127.0.0.1:0", 0, s.deliver)
	if err != nil {
		t.Fatal(err)
	}
	defer acc.Close()
	resolve := fixedResolver(acc.Addr())
	payload := make([]byte, 64)
	cycle := func(i int) {
		p := NewPeer(resolve, Config{}) // production defaults: QueueDepth 512
		p.Enqueue(1, payload)
		s.await(t, i+1, 5*time.Second)
		p.Close()
		if !simnet.Eventually(5*time.Second, 100*time.Microsecond, func() bool {
			return acc.ConnCount() == 0
		}) {
			t.Fatal("accepted connection never closed")
		}
	}
	cycle(0) // warm the listener and the runtime's first-use paths
	const cycles = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 1; i <= cycles; i++ {
		cycle(i)
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / cycles
	t.Logf("%d B allocated per connection cycle", per)
	if per > 8<<10 {
		t.Fatalf("connection cycle allocates %d B, budget 8 KiB", per)
	}
}

// TestReaderSlabsGrowToMax: a connection starts on a small slab and a
// bulk stream grows it to slabMax. Frames delivered back to back from one
// slab are contiguous in memory, so the longest contiguous run bounds the
// slab size from below.
func TestReaderSlabsGrowToMax(t *testing.T) {
	s := &sink{}
	acc, err := Listen("127.0.0.1:0", 0, s.deliver)
	if err != nil {
		t.Fatal(err)
	}
	defer acc.Close()
	c, err := net.Dial("tcp", acc.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const frames, size = 512, 1000
	var stream []byte
	for i := 0; i < frames; i++ {
		stream = append(stream, frameHeader(3, size)...)
		stream = append(stream, bytes.Repeat([]byte{byte(i)}, size)...)
	}
	if _, err := c.Write(stream); err != nil {
		t.Fatal(err)
	}
	s.await(t, frames, 5*time.Second)
	s.mu.Lock()
	defer s.mu.Unlock()
	addr := func(b []byte) uintptr { return uintptr(unsafe.Pointer(unsafe.SliceData(b))) }
	runStart, firstRun, longest := 0, 0, 0
	for i := 1; i <= frames; i++ {
		if i < frames && addr(s.frames[i]) == addr(s.frames[i-1])+size+HeaderLen {
			continue
		}
		span := (i - runStart) * (size + HeaderLen)
		if runStart == 0 {
			firstRun = span
		}
		longest = max(longest, span)
		runStart = i
	}
	if firstRun > slabMin {
		t.Fatalf("first slab carried %d B, want at most slabMin %d", firstRun, slabMin)
	}
	if longest <= slabMax/2 || longest > slabMax {
		t.Fatalf("longest slab run %d B, want a full %d B slab", longest, slabMax)
	}
}

// TestPeerConcurrentEnqueuersKeepOrder: several goroutines share one peer,
// mixing copied frames and owned batches against a small queue. Every
// accepted frame arrives, each sender's frames arrive in its own order,
// and every owned release fires.
func TestPeerConcurrentEnqueuersKeepOrder(t *testing.T) {
	s := &sink{}
	acc, err := Listen("127.0.0.1:0", 0, s.deliver)
	if err != nil {
		t.Fatal(err)
	}
	defer acc.Close()
	cfg := testConfig()
	cfg.QueueDepth = 8
	p := NewPeer(fixedResolver(acc.Addr()), cfg)
	defer p.Close()
	pool := NewSlabPool(0, 8)

	const senders, perSender = 4, 300
	var wg sync.WaitGroup
	for id := 1; id <= senders; id++ {
		wg.Add(1)
		go func(from wire.NodeID) {
			defer wg.Done()
			for seq := 0; seq < perSender; seq++ {
				payload := []byte{byte(seq), byte(seq >> 8)}
				for {
					var ok bool
					if seq%2 == 0 {
						ok = p.Enqueue(from, payload)
					} else {
						slab := pool.Get(len(payload))
						ok = p.EnqueueOwned(from, [][]byte{frameInSlab(slab, payload)}, slab.ReleaseFn)
					}
					if ok {
						break
					}
					runtime.Gosched()
				}
			}
		}(wire.NodeID(id))
	}
	wg.Wait()
	s.await(t, senders*perSender, 10*time.Second)
	s.mu.Lock()
	defer s.mu.Unlock()
	next := make(map[wire.NodeID]int)
	for i, f := range s.frames {
		from := s.froms[i]
		if got := int(f[0]) | int(f[1])<<8; got != next[from] {
			t.Fatalf("sender %d: frame %d arrived where %d was due", from, got, next[from])
		}
		next[from]++
	}
	if !simnet.Eventually(5*time.Second, time.Millisecond, func() bool { return pool.Outstanding() == 0 }) {
		t.Fatalf("owned releases missing: %d slabs outstanding", pool.Outstanding())
	}
}
