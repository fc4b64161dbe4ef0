package live

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"speedlight/internal/packet"
	"speedlight/internal/telemetry"
	"speedlight/internal/topology"
)

// TestTelemetryUnderLoad runs a full instrumented deployment — metrics
// server included — with concurrent traffic and snapshots, then checks
// the counters, spans, and HTTP endpoints agree with what happened.
// Under -race this also proves the instrumentation is data-race free.
func TestTelemetryUnderLoad(t *testing.T) {
	eachTransport(t, testTelemetryUnderLoad)
}

func testTelemetryUnderLoad(t *testing.T, udp bool) {
	ls := leafSpine(t)
	var delivered atomic.Int64
	n, err := New(Config{
		Topo:        ls.Topology,
		UDP:         udp,
		MetricsAddr: "127.0.0.1:0",
		OnDeliver:   func(*packet.Packet, topology.HostID) { delivered.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	defer n.Stop()

	if n.Registry() == nil || n.Tracer() == nil {
		t.Fatal("MetricsAddr did not auto-create registry and tracer")
	}
	addr := n.MetricsAddr()
	if addr == "" {
		t.Fatal("metrics server not bound")
	}

	stopTraffic := traffic(n, func(i int) (topology.HostID, *packet.Packet) {
		return topology.HostID(i % 6), &packet.Packet{
			DstHost: uint32((i + 2) % 6), SrcPort: uint16(i), DstPort: 80, Proto: 6, Size: 200,
		}
	})
	defer stopTraffic()

	const rounds = 3
	for i := 0; i < rounds; i++ {
		_, done, err := n.TakeSnapshot(time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("snapshot %d timed out", i)
		}
	}

	// Scrape the endpoints while traffic is still flowing.
	get := func(path string) string {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", addr, path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	prom := get("/metrics")
	for _, want := range []string{
		"speedlight_obs_snapshots_begun_total 3",
		"speedlight_obs_snapshots_completed_total 3",
		"speedlight_dp_packets_ingress_total",
		"speedlight_cp_notifs_serviced_total",
		"speedlight_live_events_total",
		"speedlight_obs_completion_latency_us_bucket",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if vars := get("/debug/vars"); !strings.Contains(vars, "speedlight") {
		t.Error("/debug/vars missing speedlight map")
	}
	if trace := get("/trace"); !strings.Contains(trace, "traceEvents") {
		t.Error("/trace is not Chrome trace_event JSON")
	}
	if pprof := get("/debug/pprof/cmdline"); pprof == "" {
		t.Error("/debug/pprof/cmdline empty")
	}

	// Counters must agree with observed facts.
	reg := n.Registry()
	begun := reg.Counter("speedlight_obs_snapshots_begun_total", "")
	if got := begun.Value(); got != rounds {
		t.Errorf("begun = %d, want %d", got, rounds)
	}
	lat := reg.Histogram("speedlight_obs_completion_latency_us", "", telemetry.LatencyBucketsUS)
	if got := lat.Count(); got != rounds {
		t.Errorf("completion latency observations = %d, want %d", got, rounds)
	}
	// The counter ticks just before each callback, so compare them once
	// the traffic has stopped and the fabric has drained.
	stopTraffic()
	deliveredMetric := reg.Counter("speedlight_live_packets_delivered_total", "")
	deadline := time.Now().Add(5 * time.Second)
	for int64(deliveredMetric.Value()) != delivered.Load() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got, saw := deliveredMetric.Value(), delivered.Load(); got == 0 || int64(got) != saw {
		t.Errorf("delivered counter %d disagrees with callback count %d", got, saw)
	}

	spans := n.Tracer().Spans()
	if len(spans) != rounds {
		t.Fatalf("spans = %d, want %d", len(spans), rounds)
	}
	for _, sp := range spans {
		if !sp.Complete {
			t.Errorf("span %d incomplete", sp.ID)
		}
		if len(sp.Devices) != 4 {
			t.Errorf("span %d device spans = %d, want 4", sp.ID, len(sp.Devices))
		}
	}
}

// TestTelemetryDisabledIsNil checks the disabled state: no registry, no
// tracer, no metrics server — and the network still works.
func TestTelemetryDisabledIsNil(t *testing.T) {
	eachTransport(t, testTelemetryDisabledIsNil)
}

func testTelemetryDisabledIsNil(t *testing.T, udp bool) {
	ls := leafSpine(t)
	n, err := New(Config{Topo: ls.Topology, UDP: udp})
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	defer n.Stop()
	if n.Registry() != nil || n.Tracer() != nil || n.MetricsAddr() != "" {
		t.Error("telemetry objects exist without opt-in")
	}
	_, done, err := n.TakeSnapshot(time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("snapshot timed out with telemetry disabled")
	}
}
