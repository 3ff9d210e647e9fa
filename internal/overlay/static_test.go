package overlay

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"infoslicing/internal/simnet"
	"infoslicing/internal/wire"
)

// staticTransport is the surface the shared static-socket tests drive.
type staticTransport interface {
	Transport
	Addr(id wire.NodeID) (string, bool)
	LearnedEndpoints() int
}

// staticFlavour is one row of the table the static-socket tests run over:
// both flavours share one core, so every behaviour of the core is pinned
// for each.
type staticFlavour struct {
	name string
	// book reserves a loopback port per id in the flavour's socket family.
	book func(t *testing.T, ids ...wire.NodeID) map[wire.NodeID]string
	make func(book map[wire.NodeID]string) staticTransport
	// connectionless: frames leave toward a learned endpoint without a
	// handshake (a TCP peer must first dial the learned sending socket,
	// which does not listen).
	connectionless bool
}

var (
	tcpFlavour = staticFlavour{
		name: "tcp",
		book: freeBook,
		make: func(book map[wire.NodeID]string) staticTransport { return NewStaticTCP(book) },
	}
	udpFlavour = staticFlavour{
		name:           "udp",
		book:           freeUDPBook,
		make:           func(book map[wire.NodeID]string) staticTransport { return NewStaticUDP(book, UDPOptions{}) },
		connectionless: true,
	}
	staticFlavours = []staticFlavour{tcpFlavour, udpFlavour}
)

// freeBook reserves loopback TCP ports and returns an address book.
func freeBook(t *testing.T, ids ...wire.NodeID) map[wire.NodeID]string {
	t.Helper()
	book := make(map[wire.NodeID]string, len(ids))
	for _, id := range ids {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		book[id] = ln.Addr().String()
		ln.Close()
	}
	return book
}

// freeUDPBook reserves loopback UDP ports and returns an address book.
func freeUDPBook(t *testing.T, ids ...wire.NodeID) map[wire.NodeID]string {
	t.Helper()
	book := make(map[wire.NodeID]string, len(ids))
	for _, id := range ids {
		pc, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		book[id] = pc.LocalAddr().String()
		pc.Close()
	}
	return book
}

type tcpSink struct {
	mu   sync.Mutex
	msgs [][]byte
	from []wire.NodeID
}

func (s *tcpSink) handler(from wire.NodeID, data []byte) {
	s.mu.Lock()
	s.msgs = append(s.msgs, data)
	s.from = append(s.from, from)
	s.mu.Unlock()
}

func (s *tcpSink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.msgs)
}

func (s *tcpSink) wait(t *testing.T, n int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		cnt := s.count()
		if cnt >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timeout: %d of %d messages", cnt, n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func nopHandler(wire.NodeID, []byte) {}

func TestStaticTCPDelivery(t *testing.T) { testStaticDelivery(t, tcpFlavour) }
func TestStaticUDPDelivery(t *testing.T) { testStaticDelivery(t, udpFlavour) }

func testStaticDelivery(t *testing.T, f staticFlavour) {
	tr := f.make(f.book(t, 1, 2))
	defer tr.Close()
	sink := &tcpSink{}
	if err := tr.Attach(1, sink.handler); err != nil {
		t.Fatal(err)
	}
	if err := tr.Attach(2, nopHandler); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := tr.Send(2, 1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	sink.wait(t, 5, 5*time.Second)
	sink.mu.Lock()
	defer sink.mu.Unlock()
	for i, from := range sink.from {
		if from != 2 {
			t.Fatalf("msg %d from %d", i, from)
		}
	}
	if st := tr.Stats(); st.Retransmissions != 0 {
		t.Fatalf("transport retransmitted: %+v", st)
	}
}

// Two *separate transports* sharing one book — the cross-process scenario
// collapsed into one test binary.
func TestStaticTCPCrossProcess(t *testing.T) { testStaticCrossProcess(t, tcpFlavour) }
func TestStaticUDPCrossProcess(t *testing.T) { testStaticCrossProcess(t, udpFlavour) }

func testStaticCrossProcess(t *testing.T, f staticFlavour) {
	book := f.book(t, 10, 20)
	procA, procB := f.make(book), f.make(book)
	defer procA.Close()
	defer procB.Close()
	sink := &tcpSink{}
	if err := procA.Attach(10, sink.handler); err != nil {
		t.Fatal(err)
	}
	if err := procB.Attach(20, nopHandler); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0x42}, 4096)
	if err := procB.Send(20, 10, payload); err != nil {
		t.Fatal(err)
	}
	sink.wait(t, 1, 5*time.Second)
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if !bytes.Equal(sink.msgs[0], payload) {
		t.Fatal("payload corrupted across transports")
	}
}

// Sending to a receiver neither the book nor the registry knows is a
// silent drop (datagram semantics): no error, no peer, no frame out.
func TestStaticTCPUnknownNodes(t *testing.T) { testStaticUnknownReceiver(t, tcpFlavour) }
func TestStaticUDPUnknownNodes(t *testing.T) { testStaticUnknownReceiver(t, udpFlavour) }

func testStaticUnknownReceiver(t *testing.T, f staticFlavour) {
	tr := f.make(f.book(t, 1))
	defer tr.Close()
	if err := tr.Attach(1, nopHandler); err != nil {
		t.Fatal(err)
	}
	if err := tr.Send(1, 99, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if st := tr.Stats(); st.Packets != 0 {
		t.Fatalf("%d frames out toward an unknown receiver", st.Packets)
	}
}

func TestStaticTCPDuplicateAttach(t *testing.T) { testStaticDuplicateAttach(t, tcpFlavour) }
func TestStaticUDPDuplicateAttach(t *testing.T) { testStaticDuplicateAttach(t, udpFlavour) }

// Both a book id and an id on a loopback port refuse a second Attach.
func testStaticDuplicateAttach(t *testing.T, f staticFlavour) {
	tr := f.make(f.book(t, 1))
	defer tr.Close()
	for _, id := range []wire.NodeID{1, 99} {
		if err := tr.Attach(id, nopHandler); err != nil {
			t.Fatal(err)
		}
		if err := tr.Attach(id, nopHandler); err == nil {
			t.Fatalf("duplicate attach of %d accepted", id)
		}
	}
}

func TestStaticTCPDetachStopsDelivery(t *testing.T) { testStaticFailReviveAndDetach(t, tcpFlavour) }
func TestStaticUDPFailReviveAndDetach(t *testing.T) { testStaticFailReviveAndDetach(t, udpFlavour) }

func testStaticFailReviveAndDetach(t *testing.T, f staticFlavour) {
	tr := f.make(f.book(t, 1, 2))
	defer tr.Close()
	sink := &tcpSink{}
	tr.Attach(1, sink.handler)
	tr.Attach(2, nopHandler)

	tr.Fail(1)
	if !tr.Down(1) {
		t.Fatal("failed node not Down")
	}
	tr.Send(2, 1, []byte("while dead"))
	time.Sleep(50 * time.Millisecond)
	if sink.count() != 0 {
		t.Fatal("failed node received data")
	}
	// A failed *sender* errors.
	tr.Fail(2)
	if err := tr.Send(2, 1, []byte("x")); err == nil {
		t.Fatal("send from failed node succeeded")
	}
	tr.Revive(1)
	tr.Revive(2)
	if !simnet.Eventually(5*time.Second, 2*time.Millisecond, func() bool {
		tr.Send(2, 1, []byte("revived")) //nolint:errcheck
		return sink.count() > 0
	}) {
		t.Fatal("no delivery after Revive")
	}

	tr.Detach(1)
	n := sink.count()
	tr.Send(2, 1, []byte("gone"))
	time.Sleep(50 * time.Millisecond)
	if sink.count() != n {
		t.Fatal("detached node received data")
	}
}

func TestStaticTCPManySenders(t *testing.T) { testStaticManySenders(t, tcpFlavour) }
func TestStaticUDPManySenders(t *testing.T) { testStaticManySenders(t, udpFlavour) }

func testStaticManySenders(t *testing.T, f staticFlavour) {
	ids := []wire.NodeID{1, 2, 3, 4, 5}
	tr := f.make(f.book(t, ids...))
	defer tr.Close()
	sink := &tcpSink{}
	if err := tr.Attach(1, sink.handler); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids[1:] {
		if err := tr.Attach(id, nopHandler); err != nil {
			t.Fatal(err)
		}
	}
	const per = 20
	var wg sync.WaitGroup
	for _, id := range ids[1:] {
		wg.Add(1)
		go func(id wire.NodeID) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tr.Send(id, 1, []byte(fmt.Sprintf("%d-%d", id, i)))
			}
		}(id)
	}
	wg.Wait()
	sink.wait(t, len(ids[1:])*per, 10*time.Second)
}

// The race pin: Sends racing Close must never enqueue onto a reaped peer
// (stranded frames / double-recycled buffers show up under -race and in
// the counters), and once Close returns every further Send is a clean nil
// — never a spurious ErrSendQueueFull. The peer core's dead-then-reap exit
// order is what makes it safe; this pins it at the overlay layer.
func TestStaticTCPCloseVsSendRace(t *testing.T) { testStaticCloseVsSendRace(t, tcpFlavour) }
func TestStaticUDPCloseVsSendRace(t *testing.T) { testStaticCloseVsSendRace(t, udpFlavour) }

func testStaticCloseVsSendRace(t *testing.T, f staticFlavour) {
	for iter := 0; iter < 10; iter++ {
		tr := f.make(f.book(t, 1, 2, 3))
		tr.Attach(1, nopHandler)
		tr.Attach(2, nopHandler)
		tr.Attach(3, nopHandler)

		start := make(chan struct{})
		closed := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				to := wire.NodeID(2 + g%2)
				payload := []byte("race")
				for {
					tr.Send(1, to, payload) //nolint:errcheck
					select {
					case <-closed:
						// Close has fully returned: from here on Send must
						// be a silent no-op, not a congestion report.
						if err := tr.Send(1, to, payload); err != nil {
							t.Errorf("send after Close: %v", err)
						}
						return
					default:
					}
				}
			}(g)
		}
		close(start)
		time.Sleep(time.Duration(iter%3) * time.Millisecond)
		tr.Close()
		close(closed)
		wg.Wait()
	}
}

// TestStaticDownAndAttachPolicy pins the core's one attach policy and its
// one Down rule, for both flavours. A book id binds its book address (a
// second transport over the same book cannot bind it again); an id the
// book lacks binds a loopback port that other nodes of the same transport
// reach, while a transport elsewhere cannot resolve it. Down is "marked
// failed, or no book address".
func TestStaticDownAndAttachPolicy(t *testing.T) {
	for _, f := range staticFlavours {
		t.Run(f.name, func(t *testing.T) {
			const bookID, failed, unattached, loop = wire.NodeID(1), wire.NodeID(2), wire.NodeID(3), wire.NodeID(99)
			book := f.book(t, bookID, failed, unattached)
			tr, other := f.make(book), f.make(book)
			defer tr.Close()
			defer other.Close()

			if err := tr.Attach(bookID, nopHandler); err != nil {
				t.Fatal(err)
			}
			if addr, _ := tr.Addr(bookID); addr != book[bookID] {
				t.Fatalf("book id bound %s, want its book address %s", addr, book[bookID])
			}
			if err := other.Attach(bookID, nopHandler); err == nil {
				t.Fatal("a second transport bound the book address again")
			}
			if err := tr.Attach(failed, nopHandler); err != nil {
				t.Fatal(err)
			}
			tr.Fail(failed)

			sink := &tcpSink{}
			if err := tr.Attach(loop, sink.handler); err != nil {
				t.Fatalf("id outside the book: %v", err)
			}
			addr, ok := tr.Addr(loop)
			if !ok || !strings.HasPrefix(addr, "127.0.0.1:") || strings.HasSuffix(addr, ":0") {
				t.Fatalf("id outside the book bound %q, want a loopback port", addr)
			}
			if !simnet.Eventually(5*time.Second, 2*time.Millisecond, func() bool {
				tr.Send(bookID, loop, []byte("in-process")) //nolint:errcheck
				return sink.count() > 0
			}) {
				t.Fatal("loopback-port node not reachable from another local node")
			}
			if _, ok := other.Addr(loop); ok {
				t.Fatal("loopback-port node resolvable by another transport")
			}

			for _, c := range []struct {
				name string
				id   wire.NodeID
				down bool
			}{
				{"attached", bookID, false},
				{"failed", failed, true},
				{"book id never attached", unattached, false},
				{"attached outside the book", loop, false},
				{"neither in the book nor attached", 77, true},
			} {
				if got := tr.Down(c.id); got != c.down {
					t.Errorf("%s: Down(%d) = %v, want %v", c.name, c.id, got, c.down)
				}
			}
			// Detach erases a loopback-port id from the book (down from
			// now on) but keeps a book entry (the node may come back).
			tr.Detach(loop)
			tr.Detach(bookID)
			if !tr.Down(loop) {
				t.Error("detached in-process id: Down = false, want true")
			}
			if tr.Down(bookID) {
				t.Error("detached book id: Down = true, want false")
			}
			tr.Revive(failed)
			if tr.Down(failed) {
				t.Error("revived node still Down")
			}
		})
	}
}

// Loss watchers: registration, threshold filtering, and removal. The wire
// path that feeds reportLoss (ack-derived smoothed loss) is exercised in
// internal/transport; here the dispatch contract is pinned directly.
func TestStaticUDPLossWatcher(t *testing.T) {
	tr := NewStaticUDP(nil, UDPOptions{})
	defer tr.Close()
	var mu sync.Mutex
	var fired []float64
	remove := tr.AddLossWatcher(0.05, func(to wire.NodeID, rate float64) {
		mu.Lock()
		fired = append(fired, rate)
		mu.Unlock()
	})
	tr.reportLoss(7, 0.01) // below threshold: silent
	tr.reportLoss(7, 0.20) // above: fires
	mu.Lock()
	n := len(fired)
	mu.Unlock()
	if n != 1 || fired[0] != 0.20 {
		t.Fatalf("watcher fired %d times (%v), want once at 0.20", n, fired)
	}
	remove()
	tr.reportLoss(7, 0.50)
	mu.Lock()
	defer mu.Unlock()
	if len(fired) != 1 {
		t.Fatal("removed watcher still fired")
	}
}
