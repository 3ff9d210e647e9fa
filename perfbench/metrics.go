package main

import (
	"fmt"
	"math"

	"infoslicing/internal/overlay"
	"infoslicing/internal/relay"
)

// endToEndNames are the metrics every untraced run reports, on every
// workload; perLayerNames those of every traced run. BENCHMARK.json lists
// the same names (a test keeps them in step).
var endToEndNames = []string{
	"setup_s", "goodput_mbps", "msgs_per_s", "msg_p50_ms", "msg_p95_ms",
	"delivery_ratio", "cpu_us_per_msg", "heap_mb",
}

var perLayerNames = []string{
	"source.send_us_p50", "source.send_us_p99", "source.self_us_p50",
	"source.frames_per_msg", "source.send_drops",
	"core.build_us_p50", "source.establish_us_p50",
	"establish_p50_ms", "establish_p99_ms",
	"transport.handoff_us_p50", "transport.frames_per_call", "transport.owned_calls",
	"transport.link_us_p50", "transport.link_us_p99",
	"transport.wire_bytes_per_msg", "transport.lost", "transport.send_failures",
	"transport.reconnects", "transport.retransmissions",
	"relay.ingress_us_p50", "relay.hop_us_p50", "relay.hop_us_p99",
	"relay.round_wait_us_p99", "relay.dest_us_p50", "relay.dest_us_p99",
	"relay.queue_drops", "relay.send_drops", "relay.regenerated",
	"relay.rounds_skipped", "relay.app_dropped",
	"relay.flow_table_size", "relay.flows_evicted", "relay.flows_rejected", "relay.filter_misses",
	"relay.heartbeats_out", "relay.parent_down_sent", "relay.splices_applied",
	"simnet.vsec_per_wall_s", "simnet.packets", "simnet.divergent_episodes",
	"runtime.allocs_per_op", "runtime.alloc_kb_per_op", "runtime.gc_cycles", "runtime.gc_pause_ms",
	"trace.sampled_paths", "trace.unattributed_share", "trace.overhead_pct", "trace.cpu_overhead_pct",
}

// summary is the outcome of a measured window in end-to-end terms. Counts
// cover the whole window; rates, CPU and latency percentiles are medians
// over the window's slices.
type summary struct {
	attempted, delivered, failed int64
	p50, p95, p99                float64 // ms; a failed operation ranks above every limit
	perSec, mbps, cpuUs          float64
}

func summarize(m *measurement) summary {
	var s summary
	marks := m.win.marks
	capMs := float64(m.w.deadline) / 1e6
	var p50s, p95s, p99s, rates, cpus []float64
	for i, sl := range m.tally.slices {
		s.attempted += int64(len(sl.latMs))
		s.delivered += int64(sl.delivered)
		if len(sl.latMs) == 0 {
			continue
		}
		lat := make([]float64, len(sl.latMs))
		for j, l := range sl.latMs {
			lat[j] = float64(l)
		}
		p50s = append(p50s, math.Min(percentile(lat, 50), capMs))
		p95s = append(p95s, math.Min(percentile(lat, 95), capMs))
		p99s = append(p99s, math.Min(percentile(lat, 99), capMs))
		rates = append(rates, float64(sl.delivered)/(float64(marks[i+1].at-marks[i].at)/1e9))
		if sl.delivered > 0 {
			cpus = append(cpus, float64((marks[i+1].cpu-marks[i].cpu).Microseconds())/float64(sl.delivered))
		}
	}
	s.failed = s.attempted - s.delivered
	s.p50, s.p95, s.p99 = median(p50s), median(p95s), median(p99s)
	s.perSec, s.cpuUs = median(rates), median(cpus)
	s.mbps = s.perSec * float64(m.w.msgBytes) * 8 / 1e6
	return s
}

// endToEnd reports an untraced measurement.
func (m *measurement) endToEnd() *result {
	r := newResult()
	s := summarize(m)
	r.Attempted, r.Failed = s.attempted, s.failed
	r.Correct = m.tally.corrupt == 0 && s.attempted > 0
	r.set("setup_s", median(m.setups), "s")
	r.set("goodput_mbps", s.mbps, "Mbit/s")
	r.set("msgs_per_s", s.perSec, "1/s")
	r.set("msg_p50_ms", s.p50, "ms")
	r.set("msg_p95_ms", s.p95, "ms")
	r.set("delivery_ratio", float64(s.delivered)/float64(max(s.attempted, 1)), "ratio")
	r.set("cpu_us_per_msg", s.cpuUs, "us")
	r.set("heap_mb", m.win.heapMB(), "MB")
	r.extra["msg_p99_ms"] = metric{s.p99, "ms"}
	m.addCommon(r, s)
	return r
}

// addCommon adds the workload-specific report lines and notes.
func (m *measurement) addCommon(r *result, s summary) {
	if m.w.churn {
		est := m.establishMs()
		r.extra["establish_p50_ms"] = metric{percentile(est, 50), "ms"}
		r.extra["establish_p99_ms"] = metric{percentile(est, 99), "ms"}
		r.extra["flows_per_s"] = metric{s.perSec, "1/s"}
		r.extra["cpu_us_per_flow"] = metric{s.cpuUs, "us"}
	}
	d := m.relay1
	d0 := m.relay0
	r.note("window %.2fs: %d attempted, %d delivered, %d failed, %d late, %d corrupt, %d stray",
		m.win.seconds(), s.attempted, s.delivered, s.failed, m.tally.late, m.tally.corrupt, m.stray)
	r.note("relay queue_drops %d, send_drops %d, regenerated %d, rounds_skipped %d, app_dropped %d; source send_drops %d",
		d.QueueDrops-d0.QueueDrops, d.SendDrops-d0.SendDrops, d.Regenerated-d0.Regenerated,
		d.RoundsSkipped-d0.RoundsSkipped, d.Dropped-d0.Dropped, m.drops)
	if m.tally.corrupt > 0 {
		r.note("FAIL: %d deliveries did not match the message sent", m.tally.corrupt)
	}
}

// perLayer reports a traced measurement, with ref the untraced reference
// measured just before it in the same process.
func (m *measurement) perLayer(ref *measurement, cfg runConfig) (*result, error) {
	r := newResult()
	s := summarize(m)
	rs := summarize(ref)
	r.Attempted, r.Failed = s.attempted+rs.attempted, s.failed+rs.failed
	r.Correct = m.tally.corrupt == 0 && ref.tally.corrupt == 0 && s.attempted > 0 && rs.attempted > 0
	setSourceMetrics(r, m.tracer, m.tally.sampled, m.drops, m.establishMs())
	setTransportMetrics(r, m.tracer, m.tr1, m.tr0, s.delivered)
	a := traceAnalysis(m.traces, m.tally.sampled)
	setPathMetrics(r, a)
	setRelayMetrics(r, m.relay1, m.relay0, m.table)
	r.set("simnet.vsec_per_wall_s", 0, "ratio")
	r.set("simnet.packets", 0, "count")
	r.set("simnet.divergent_episodes", 0, "count")
	setRuntimeMetrics(r, &m.win, s.delivered)
	addAttribution(r, a, s.p50)
	r.set("trace.overhead_pct", pctChange(s.p50, rs.p50), "%")
	r.set("trace.cpu_overhead_pct", pctChange(s.cpuUs, rs.cpuUs), "%")
	r.note("untraced reference: msg_p50_ms %.4g, cpu_us_per_msg %.4g; traced: %.4g, %.4g",
		rs.p50, rs.cpuUs, s.p50, s.cpuUs)
	m.addCommon(r, s)
	if err := writeSpans(spanFile(cfg), a.spans); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	r.note("critical-path spans: %s", spanFile(cfg))
	return r, nil
}

// setSourceMetrics reports the sender's spans: Send, its self time, its
// frames, and the build/establish calls.
func setSourceMetrics(r *result, t *tracer, recs []*msgRec, drops int64, establishMs []float64) {
	var sendUs, selfUs, frames []float64
	for _, rec := range recs {
		if rec == nil || rec.sendNs == 0 {
			continue
		}
		sendUs = append(sendUs, float64(rec.sendNs)/1e3)
		selfUs = append(selfUs, float64(rec.sendNs-rec.handoffNs)/1e3)
		frames = append(frames, float64(rec.frames))
	}
	r.set("source.send_us_p50", percentile(sendUs, 50), "us")
	r.set("source.send_us_p99", percentile(sendUs, 99), "us")
	r.set("source.self_us_p50", percentile(selfUs, 50), "us")
	r.set("source.frames_per_msg", mean(frames), "count")
	r.set("source.send_drops", float64(drops), "count")
	r.set("core.build_us_p50", percentile(t.spanValues("core.build"), 50), "us")
	r.set("source.establish_us_p50", percentile(t.spanValues("source.establish"), 50), "us")
	r.set("establish_p50_ms", percentile(establishMs, 50), "ms")
	r.set("establish_p99_ms", percentile(establishMs, 99), "ms")
}

// setTransportMetrics reports the wrapper's hand-off and handler figures
// and the transport's own counters over the window (tr minus tr0).
func setTransportMetrics(r *result, t *tracer, tr, tr0 overlay.TransportStats, delivered int64) {
	r.set("transport.handoff_us_p50", t.handoff.quantile(50)/1e3, "us")
	r.set("transport.frames_per_call", float64(t.frames.Load())/float64(max(t.calls.Load(), 1)), "count")
	r.set("transport.owned_calls", float64(t.ownedCalls.Load()), "count")
	r.set("transport.wire_bytes_per_msg", float64(tr.Bytes-tr0.Bytes)/float64(max(delivered, 1)), "B")
	r.set("transport.lost", float64(tr.Lost-tr0.Lost), "count")
	r.set("transport.send_failures", float64(tr.SendFailures-tr0.SendFailures), "count")
	r.set("transport.reconnects", float64(tr.Reconnects-tr0.Reconnects), "count")
	r.set("transport.retransmissions", float64(tr.Retransmissions-tr0.Retransmissions), "count")
	r.set("relay.ingress_us_p50", t.ingress.quantile(50)/1e3, "us")
}

func traceAnalysis(traces []*flowTrace, recs []*msgRec) analysis {
	var a analysis
	for _, ft := range traces {
		a.addFlow(ft, recs, true)
	}
	return a
}

// setPathMetrics reports link, hop, round-wait and destination times from
// the sampled frame events.
func setPathMetrics(r *result, a analysis) {
	r.set("transport.link_us_p50", percentile(a.links, 50), "us")
	r.set("transport.link_us_p99", percentile(a.links, 99), "us")
	r.set("relay.hop_us_p50", percentile(a.hops, 50), "us")
	r.set("relay.hop_us_p99", percentile(a.hops, 99), "us")
	r.set("relay.round_wait_us_p99", percentile(a.roundWaits, 99), "us")
	r.set("relay.dest_us_p50", percentile(a.dests, 50), "us")
	r.set("relay.dest_us_p99", percentile(a.dests, 99), "us")
}

// setRelayMetrics reports the pool's counters over the window (d minus
// d0) and its flow-table occupancy at the window's end.
func setRelayMetrics(r *result, d, d0 relay.Stats, table int) {
	r.set("relay.queue_drops", float64(d.QueueDrops-d0.QueueDrops), "count")
	r.set("relay.send_drops", float64(d.SendDrops-d0.SendDrops), "count")
	r.set("relay.regenerated", float64(d.Regenerated-d0.Regenerated), "count")
	r.set("relay.rounds_skipped", float64(d.RoundsSkipped-d0.RoundsSkipped), "count")
	r.set("relay.app_dropped", float64(d.Dropped-d0.Dropped), "count")
	r.set("relay.flow_table_size", float64(table), "count")
	r.set("relay.flows_evicted", float64(d.FlowsEvicted-d0.FlowsEvicted), "count")
	r.set("relay.flows_rejected", float64(d.FlowsRejected-d0.FlowsRejected), "count")
	r.set("relay.filter_misses", float64(d.FilterMisses-d0.FilterMisses), "count")
	r.set("relay.heartbeats_out", float64(d.HeartbeatsOut-d0.HeartbeatsOut), "count")
	r.set("relay.parent_down_sent", float64(d.ParentDownSent-d0.ParentDownSent), "count")
	r.set("relay.splices_applied", float64(d.SplicesApplied-d0.SplicesApplied), "count")
}

// setRuntimeMetrics reports allocator and collector work per delivered
// operation over the window.
func setRuntimeMetrics(r *result, w *window, delivered int64) {
	ops := float64(max(delivered, 1))
	r.set("runtime.allocs_per_op", w.mallocs()/ops, "count")
	r.set("runtime.alloc_kb_per_op", w.allocBytes()/1024/ops, "KiB")
	r.set("runtime.gc_cycles", w.gcCycles(), "count")
	r.set("runtime.gc_pause_ms", float64(w.gcPause())/1e6, "ms")
}

// addAttribution compares the sum of the critical-path layer medians with
// the traced median latency (msgP50, ms).
func addAttribution(r *result, a analysis, msgP50 float64) {
	var src, link, hop, dest []float64
	for _, p := range a.paths {
		src = append(src, p.source)
		link = append(link, p.link)
		hop = append(hop, p.hop)
		dest = append(dest, p.dest)
	}
	sumMs := (median(src) + median(link) + median(hop) + median(dest)) / 1e3
	share := 1.0
	if msgP50 > 0 && len(a.paths) > 0 {
		share = (msgP50 - sumMs) / msgP50
	}
	r.set("trace.sampled_paths", float64(len(a.paths)), "count")
	r.set("trace.unattributed_share", share, "ratio")
	r.note("critical path medians (ms): source %.4g + link %.4g + hop %.4g + dest %.4g = %.4g vs msg_p50 %.4g (%d paths, %d incomplete)",
		median(src)/1e3, median(link)/1e3, median(hop)/1e3, median(dest)/1e3, sumMs, msgP50, len(a.paths), a.incomplete)
}

// establishMs returns the establishment latencies a run saw: per cycle in
// the window on flow-churn, per flow in the setups elsewhere.
func (m *measurement) establishMs() []float64 {
	if m.w.churn {
		return m.tally.establishMs
	}
	return m.setupEstablishMs
}

func pctChange(v, ref float64) float64 {
	if ref == 0 {
		return 0
	}
	return (v - ref) / ref * 100
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
