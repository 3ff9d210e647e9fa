package transport

import (
	"bytes"
	"encoding/binary"
	"net"
	"testing"

	"infoslicing/internal/wire"
)

// fuzzMaxFrame keeps the reader's oversize-frame path reachable from
// short inputs while still admitting frames larger than every slab step.
const fuzzMaxFrame = 96 << 10

// refFrame is one frame as the reference parser reads it.
type refFrame struct {
	from    wire.NodeID
	payload []byte
}

// parseStream is the reference framing parser: whole frames in order,
// stopping at the first header claiming more than maxFrame (the reader
// drops the connection there) or at a truncated tail.
func parseStream(stream []byte, maxFrame int) []refFrame {
	var out []refFrame
	for len(stream) >= HeaderLen {
		size := binary.BigEndian.Uint32(stream)
		if size > uint32(maxFrame) || len(stream)-HeaderLen < int(size) {
			break
		}
		out = append(out, refFrame{
			from:    wire.NodeID(binary.BigEndian.Uint32(stream[4:])),
			payload: stream[HeaderLen : HeaderLen+int(size)],
		})
		stream = stream[HeaderLen+int(size):]
	}
	return out
}

// FuzzStreamReader feeds a byte stream into a real Acceptor read loop over
// net.Pipe, written in chunks whose sizes the fuzzer chooses. The stream
// is up to fillFrames well-formed frames of fillSize bytes (at most
// ~128 KiB of them, enough to walk the slab through every growth step with
// rolls at arbitrary offsets), then arbitrary tail bytes. Every delivered
// frame must match the reference parser, come out as a capped view, and
// still hold its bytes when the connection is done (delivered regions are
// never rewritten).
func FuzzStreamReader(f *testing.F) {
	f.Add(uint16(0), uint8(0), []byte{}, []byte{})
	f.Add(uint16(1500), uint8(48), frameHeader(9, 3), []byte{0, 7, 255})
	f.Add(uint16(4096), uint8(20), append(frameHeader(1, 1<<30), 1, 2), []byte{11})
	f.Fuzz(func(t *testing.T, fillSize uint16, fillFrames uint8, tail, splits []byte) {
		var stream []byte
		for i := 0; i < int(fillFrames) && len(stream) < 128<<10; i++ {
			stream = append(stream, frameHeader(wire.NodeID(i), int(fillSize))...)
			stream = append(stream, bytes.Repeat([]byte{byte(i)}, int(fillSize))...)
		}
		stream = append(stream, tail...)
		want := parseStream(stream, fuzzMaxFrame)

		var got []refFrame
		a := NewAcceptor(nil, fuzzMaxFrame, func(from wire.NodeID, payload []byte) bool {
			if cap(payload) != len(payload) {
				t.Errorf("frame %d: view has cap %d beyond its %d bytes", len(got), cap(payload), len(payload))
			}
			got = append(got, refFrame{from, payload})
			return true
		})
		srv, cli := net.Pipe()
		done := make(chan struct{})
		go func() {
			a.readLoop(srv)
			srv.Close() // unblocks the writer if the reader quit early
			close(done)
		}()
		for off, i := 0, 0; off < len(stream); i++ {
			n := len(stream) - off
			if len(splits) > 0 {
				// Chunks of 1..1921 bytes: the split byte's low nibble is
				// a mantissa and bits 4-6 a shift, so both dribbles and
				// bulk writes occur.
				b := splits[i%len(splits)]
				n = min(n, 1+int(b&0x0f)<<(b>>4&0x07))
			}
			if _, err := cli.Write(stream[off : off+n]); err != nil {
				break
			}
			off += n
		}
		cli.Close()
		<-done

		if len(got) != len(want) {
			t.Fatalf("delivered %d frames, reference parser reads %d", len(got), len(want))
		}
		for i := range want {
			if got[i].from != want[i].from || !bytes.Equal(got[i].payload, want[i].payload) {
				t.Fatalf("frame %d: got (%d, %d B), want (%d, %d B)",
					i, got[i].from, len(got[i].payload), want[i].from, len(want[i].payload))
			}
		}
	})
}
