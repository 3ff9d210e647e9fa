package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"sort"
	"testing"
	"time"

	"infoslicing/internal/overlay"
	"infoslicing/internal/simnet"
	"infoslicing/internal/wire"
)

// The metric and workload names the program prints must be exactly those
// BENCHMARK.json declares.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		sort.Strings(out)
		return out
	}
	sorted := func(xs []string) []string {
		out := slices.Clone(xs)
		sort.Strings(out)
		return out
	}
	if got, want := names(spec.EndToEnd), sorted(endToEndNames); !slices.Equal(got, want) {
		t.Errorf("end_to_end names %v, program prints %v", got, want)
	}
	if got, want := names(spec.PerLayer), sorted(perLayerNames); !slices.Equal(got, want) {
		t.Errorf("per_layer names %v, program prints %v", got, want)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
}

type capabilities struct{ owned, advisor, loss bool }

func capsOf(tr overlay.Transport) capabilities {
	_, o := tr.(overlay.OwnedSender)
	_, a := tr.(overlay.CongestionAdvisor)
	_, l := tr.(overlay.LossReporter)
	return capabilities{o, a, l}
}

type bareTransport struct{ overlay.TransportBase }

func (bareTransport) Attach(wire.NodeID, overlay.Handler) error { return nil }
func (bareTransport) Detach(wire.NodeID)                        {}
func (bareTransport) Send(wire.NodeID, wire.NodeID, []byte) error {
	return nil
}

// The tracing wrapper must offer exactly the optional interfaces of the
// transport it wraps: a missing OwnedSender silently turns relay egress
// into copies, a missing CongestionAdvisor turns UDP pacing off.
func TestTracedTransportKeepsCapabilities(t *testing.T) {
	cases := []struct {
		name string
		tr   overlay.Transport
		want capabilities
	}{
		{"tcp", overlay.NewTCPNetwork(), capabilities{owned: true}},
		{"udp", overlay.NewUDPNetwork(overlay.UDPOptions{}), capabilities{true, true, true}},
		{"simnet", simnet.NewSimNet(simnet.NewVirtualClock(), 1, simnet.LinkProfile{}), capabilities{owned: true}},
		{"bare", bareTransport{}, capabilities{}},
	}
	for _, c := range cases {
		if got := capsOf(c.tr); got != c.want {
			t.Errorf("%s: transport capabilities %+v, test expects %+v", c.name, got, c.want)
		}
		if got := capsOf(newTracer().wrap(c.tr)); got != c.want {
			t.Errorf("%s: traced capabilities %+v, want %+v", c.name, got, c.want)
		}
		c.tr.Close()
	}
}

func smallTCP(deadline time.Duration) wallWorkload {
	return wallWorkload{
		newTransport: tcpTransport,
		relayCfg:     baseRelayCfg(),
		pool:         12,
		shape:        graphShape{L: 3, D: 2, DPrime: 2, destLast: true},
		flows:        1,
		window:       1,
		msgBytes:     256,
		deadline:     deadline,
		sampleEvery:  1,
	}
}

// A traced run delivers verified messages, its relays take the owned
// (zero-copy) egress path, and every rebuilt critical path adds up to its
// message's latency.
func TestTracedRunOwnedEgressAndPaths(t *testing.T) {
	w := smallTCP(2 * time.Second)
	m, err := w.measure(11, 500*time.Millisecond, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	s := summarize(m)
	if s.delivered == 0 || m.tally.corrupt != 0 {
		t.Fatalf("delivered %d, corrupt %d", s.delivered, m.tally.corrupt)
	}
	if n := m.tracer.ownedCalls.Load(); n == 0 {
		t.Fatal("traced relays never used SendOwned")
	}
	a := traceAnalysis(m.traces, m.tally.sampled)
	if len(a.paths) == 0 {
		t.Fatalf("no critical path rebuilt (%d incomplete)", a.incomplete)
	}
	for i, p := range a.paths {
		if sum := p.source + p.link + p.hop + p.dest; math.Abs(sum-p.total) > 0.01 || p.link <= 0 || p.hop <= 0 {
			t.Fatalf("path %d: parts %+v do not add up to the latency", i, p)
		}
	}
}

// A message that can never arrive is failed at its deadline; the run
// neither hangs nor waits out a longer timeout.
func TestUndeliverableMessagesFailAtDeadline(t *testing.T) {
	w := smallTCP(200 * time.Millisecond)
	w.relayCfg.RoundWait = time.Hour // a round missing a slice never completes
	tr := &dropData{}
	w.newTransport = func(int64) overlay.Transport {
		tr.Transport = overlay.NewTCPNetwork()
		return tr
	}
	start := time.Now()
	m, err := w.measure(12, 300*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Warm-up, window and one deadline, plus set-up and teardown slack.
	if took := time.Since(start); took > warmup+3*time.Second {
		t.Fatalf("run took %v", took)
	}
	s := summarize(m)
	if s.attempted == 0 || s.failed != s.attempted {
		t.Fatalf("attempted %d, failed %d: every message should fail", s.attempted, s.failed)
	}
	if s.p99 != 200 {
		t.Fatalf("p99 %.3f ms, want the 200 ms deadline", s.p99)
	}
}

// dropData loses every data frame a source endpoint sends.
type dropData struct{ overlay.Transport }

func (d *dropData) Send(from, to wire.NodeID, data []byte) error {
	if from >= firstSourceID && len(data) > 0 && wire.MsgType(data[0]) == wire.MsgData {
		return nil
	}
	return d.Transport.Send(from, to, data)
}

// churn-sim's protocol outcome is a function of the seed: two runs agree
// exactly, a traced run agrees with an untraced one, and another seed
// differs. (Some seeds do diverge between runs — the benchmark counts
// those episodes in simnet.divergent_episodes; see CHANGES.md.)
func TestChurnSimDeterminism(t *testing.T) {
	a, err := runEpisode(5, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runEpisode(5, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	c, err := runEpisode(6, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.out != b.out {
		t.Fatalf("same seed, different outcomes: %+v vs %+v (traced)", a.out, b.out)
	}
	if a.out == c.out {
		t.Fatalf("seeds 5 and 6 gave identical outcomes %+v", a.out)
	}
	if a.out.delivered == 0 || a.out.splices == 0 || a.out.kills == 0 || a.corrupt != 0 {
		t.Fatalf("scenario did not exercise churn: %+v, corrupt %d", a.out, a.corrupt)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100_000; v++ {
		h.observe(v * 1000)
	}
	for _, p := range []float64{50, 99} {
		want := p / 100 * 100_000 * 1000
		if got := h.quantile(p); math.Abs(got-want)/want > 0.04 {
			t.Errorf("p%v = %.0f, want %.0f within 4%%", p, got, want)
		}
	}
	for v := int64(0); v < 1<<62; v = v*3 + 1 {
		if i := histIndex(v); i < 0 || i >= histBuckets {
			t.Fatalf("histIndex(%d) = %d out of range", v, i)
		}
	}
}
