package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"infoslicing/internal/wire"
)

// Critical-path analysis of a traced run. For each sampled, delivered
// message the analysis finds the round whose decoding completed last at
// the destination and walks that round back to the source:
//
//	source  Send call start → hand-off of the frame that reached stage 1
//	link    hand-off → receive handler at the next node, per hop
//	hop     a relay's last slice in (before it forwarded) → hand-off of
//	        the frame on the path
//	dest    the slice that made the round decodable → plaintext on
//	        Received
//
// By construction the four parts of one message add up exactly to its
// latency; the traced report compares the sum of their medians with the
// median latency.

type frameKey struct {
	from, to wire.NodeID
	seq      uint32
}

type nodeRound struct {
	node wire.NodeID
	seq  uint32
}

// pathParts is one message's critical path, in µs; the parts add up to
// total, the message's latency.
type pathParts struct {
	source, link, hop, dest, total float64
}

// span is one critical-path segment as written to the span file.
type span struct {
	Msg    uint64      `json:"msg"`
	Name   string      `json:"name"`
	Parent string      `json:"parent"`
	Node   wire.NodeID `json:"node,omitempty"`
	Start  float64     `json:"start_us"`
	End    float64     `json:"end_us"`
}

// analysis is what the frame events of a traced run yield.
type analysis struct {
	paths      []pathParts
	links      []float64 // every matched hand-off → handler, µs
	hops       []float64 // per relay round: last slice in → first egress, µs
	roundWaits []float64 // per relay round: first slice in → first egress, µs
	dests      []float64 // per path: decisive slice → Received, µs
	incomplete int       // sampled delivered messages whose path could not be rebuilt
	spans      []span
}

func (a *analysis) addFlow(ft *flowTrace, recs []*msgRec, keepSpans bool) {
	ft.mu.Lock()
	sends := append([]frameEvent(nil), ft.sends...)
	recvs := append([]frameEvent(nil), ft.recvs...)
	ft.mu.Unlock()

	sendOf := make(map[frameKey]frameEvent, len(sends))
	egress := make(map[nodeRound]int64) // first hand-off per relay round
	for _, e := range sends {
		k := frameKey{e.from, e.to, e.seq}
		if prev, ok := sendOf[k]; !ok || e.at < prev.at {
			sendOf[k] = e
		}
		nr := nodeRound{e.from, e.seq}
		if prev, ok := egress[nr]; !ok || e.at < prev {
			egress[nr] = e.at
		}
	}
	sort.Slice(recvs, func(i, j int) bool { return recvs[i].at < recvs[j].at })
	inbound := make(map[nodeRound][]frameEvent)
	for _, e := range recvs {
		nr := nodeRound{e.to, e.seq}
		inbound[nr] = append(inbound[nr], e)
		if s, ok := sendOf[frameKey{e.from, e.to, e.seq}]; ok {
			a.links = append(a.links, float64(e.at-s.at)/1e3)
		}
	}
	for nr, ins := range inbound {
		out, ok := egress[nr]
		if !ok || ft.sources[nr.node] {
			continue
		}
		if last, ok := lastBefore(ins, out); ok {
			a.hops = append(a.hops, float64(out-last.at)/1e3)
			a.roundWaits = append(a.roundWaits, float64(out-ins[0].at)/1e3)
		}
	}

	d := ft.d
	dest := ft.dest
	for _, r := range recs {
		if !r.sampled || r.failed || r.recv == 0 || r.ft != ft {
			continue
		}
		// The round that completed last at the destination, and the slice
		// that completed it (the d-th from distinct parents).
		var decisive frameEvent
		found := true
		for seq := r.seqLo; seq < r.seqHi; seq++ {
			e, ok := nthDistinct(inbound[nodeRound{dest, seq}], d)
			if !ok {
				found = false
				break
			}
			if e.at > decisive.at || seq == r.seqLo {
				decisive = e
			}
		}
		if !found || r.seqHi == r.seqLo {
			a.incomplete++
			continue
		}
		p, segs, ok := walkBack(ft, sendOf, inbound, decisive, r)
		if !ok {
			a.incomplete++
			continue
		}
		a.paths = append(a.paths, p)
		a.dests = append(a.dests, p.dest)
		if keepSpans {
			a.spans = append(a.spans, segs...)
		}
	}
}

// walkBack follows the decisive frame back to the source endpoint that
// injected its round.
func walkBack(ft *flowTrace, sendOf map[frameKey]frameEvent, inbound map[nodeRound][]frameEvent, cur frameEvent, r *msgRec) (pathParts, []span, bool) {
	msg := uint64(ft.destFlow)<<20 ^ r.idx
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	p := pathParts{dest: us(r.recv - cur.at), total: us(r.recv - r.sent)}
	segs := []span{
		{Msg: msg, Name: "message", Start: us(r.sent), End: us(r.recv)},
		{Msg: msg, Name: "relay.dest", Parent: "message", Node: cur.to, Start: us(cur.at), End: us(r.recv)},
	}
	for hops := 0; hops <= ft.l+1; hops++ {
		s, ok := sendOf[frameKey{cur.from, cur.to, cur.seq}]
		if !ok {
			return p, nil, false
		}
		p.link += us(cur.at - s.at)
		segs = append(segs, span{Msg: msg, Name: "transport.link", Parent: "message", Node: cur.to, Start: us(s.at), End: us(cur.at)})
		if ft.sources[cur.from] {
			p.source = us(s.at - r.sent)
			segs = append(segs, span{Msg: msg, Name: "source.send", Parent: "message", Start: us(r.sent), End: us(s.at)})
			return p, segs, true
		}
		last, ok := lastBefore(inbound[nodeRound{cur.from, cur.seq}], s.at)
		if !ok {
			return p, nil, false
		}
		p.hop += us(s.at - last.at)
		segs = append(segs, span{Msg: msg, Name: "relay.hop", Parent: "message", Node: cur.from, Start: us(last.at), End: us(s.at)})
		cur = last
	}
	return p, nil, false
}

// lastBefore returns the latest event (ins sorted by time) at or before t.
func lastBefore(ins []frameEvent, t int64) (frameEvent, bool) {
	i := sort.Search(len(ins), func(i int) bool { return ins[i].at > t })
	if i == 0 {
		return frameEvent{}, false
	}
	return ins[i-1], true
}

// nthDistinct returns the n-th event (ins sorted by time) from a sender
// not seen before.
func nthDistinct(ins []frameEvent, n int) (frameEvent, bool) {
	seen := make(map[wire.NodeID]bool, n)
	for _, e := range ins {
		if !seen[e.from] {
			seen[e.from] = true
			if len(seen) == n {
				return e, true
			}
		}
	}
	return frameEvent{}, false
}

// virtualView returns copies of the traces and records whose times are the
// virtual-clock stamps, so the same analysis attributes virtual latency.
func virtualView(traces []*flowTrace, recs []*msgRec) ([]*flowTrace, []*msgRec) {
	swap := func(es []frameEvent) []frameEvent {
		out := make([]frameEvent, len(es))
		for i, e := range es {
			e.at = e.vat
			out[i] = e
		}
		return out
	}
	byOld := map[*flowTrace]*flowTrace{}
	var vts []*flowTrace
	for _, ft := range traces {
		ft.mu.Lock()
		v := &flowTrace{flows: ft.flows, dest: ft.dest, destFlow: ft.destFlow, d: ft.d, l: ft.l,
			sources: ft.sources, sends: swap(ft.sends), recvs: swap(ft.recvs)}
		ft.mu.Unlock()
		byOld[ft] = v
		vts = append(vts, v)
	}
	var vrecs []*msgRec
	for _, r := range recs {
		if r == nil {
			continue
		}
		v := *r
		v.ft, v.sent, v.recv = byOld[r.ft], r.vsent, r.vrecv
		vrecs = append(vrecs, &v)
	}
	return vts, vrecs
}

// writeSpans writes the critical-path spans as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func spanFile(cfg runConfig) string {
	return filepath.Join(cfg.outDir, "trace", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
}
