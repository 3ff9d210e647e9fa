package relay

import (
	"math/rand"
	"testing"
	"time"

	"infoslicing/internal/code"
	"infoslicing/internal/wire"
)

func TestPruneRoundsBoundsMemory(t *testing.T) {
	fs := &flowState{rounds: make(map[uint32]*round)}
	// Fill far beyond the cap with a mix of handled and stuck rounds.
	for s := uint32(0); s < maxLiveRounds*2; s++ {
		fs.rounds[s] = &round{
			slices:    map[wire.NodeID]code.Slice{},
			forwarded: s%2 == 0,
		}
	}
	cur := uint32(maxLiveRounds * 2)
	fs.pruneRounds(cur)
	// Everything older than a full window is gone; recent unforwarded
	// rounds survive.
	if len(fs.rounds) > maxLiveRounds {
		t.Fatalf("prune left %d rounds", len(fs.rounds))
	}
	if _, ok := fs.rounds[0]; ok {
		t.Fatal("ancient round survived")
	}
	// A recent stuck round (within half a window) must survive: its slices
	// may still arrive.
	recent := cur - 10
	fs.rounds[recent] = &round{slices: map[wire.NodeID]code.Slice{}}
	fs.pruneRounds(cur)
	if _, ok := fs.rounds[recent]; !ok {
		t.Fatal("recent round pruned")
	}
}

func TestPruneStopsTimers(t *testing.T) {
	fs := &flowState{rounds: make(map[uint32]*round)}
	fired := make(chan struct{}, 1)
	fs.rounds[0] = &round{
		slices:    map[wire.NodeID]code.Slice{},
		forwarded: true,
		timer: time.AfterFunc(50*time.Millisecond, func() {
			fired <- struct{}{}
		}),
	}
	fs.pruneRounds(maxLiveRounds * 3)
	select {
	case <-fired:
		t.Fatal("pruned round's timer fired")
	case <-time.After(100 * time.Millisecond):
	}
}

// TestChildlessRelayKeepsNoRounds: a relay with no children that is not
// the receiver neither forwards nor decodes, so it stores no round — not
// even past maxLiveRounds, where pruning used to walk the whole table for
// every new round.
func TestChildlessRelayKeepsNoRounds(t *testing.T) {
	const (
		flow   = wire.FlowID(0x1eaf)
		parent = wire.NodeID(11)
	)
	n, err := New(1, &rawTransport{}, Config{Rng: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	fs := injectFlow(n, flow, &wire.PerNodeInfo{Key: testKey(0x17)})
	fs.seen[parent] = true

	rng := rand.New(rand.NewSource(2))
	enc, err := code.NewEncoder(2, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	chunk := make([]byte, 64)
	rng.Read(chunk)
	slices, err := enc.Encode(chunk)
	if err != nil {
		t.Fatal(err)
	}
	sh := n.shardFor(flow)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for seq := uint32(0); seq < 3*maxLiveRounds; seq++ {
		pkt, err := wire.UnmarshalPacket(dataFrame(flow, seq, 2, slices[0]))
		if err != nil {
			t.Fatal(err)
		}
		n.handleData(sh, flow, fs, parent, pkt)
	}
	if len(fs.rounds) != 0 {
		t.Fatalf("childless non-receiver holds %d rounds, want 0", len(fs.rounds))
	}
}
