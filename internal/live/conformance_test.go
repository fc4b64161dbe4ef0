package live

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"speedlight/internal/audit"
	"speedlight/internal/dataplane"
	"speedlight/internal/emunet"
	"speedlight/internal/invariant"
	"speedlight/internal/journal"
	"speedlight/internal/packet"
	"speedlight/internal/sim"
	"speedlight/internal/sink"
	"speedlight/internal/snapstore"
	"speedlight/internal/telemetry"
	"speedlight/internal/topology"
)

// conformanceSnapshots is each campaign's snapshot count.
const conformanceSnapshots = 8

// campaign is what one runtime is handed: the fabric and the analysis
// plane every runtime must drive the same way.
type campaign struct {
	topo         *topology.LeafSpine
	channelState bool
	journal      *journal.Set
	store        *snapstore.Store
	invariants   *invariant.Engine
	registry     *telemetry.Registry
}

// runtimes runs one campaign each — traffic between hosts on both
// leaves plus conformanceSnapshots snapshots — and returns the sink
// that completed them.
var runtimes = []struct {
	name string
	run  func(t *testing.T, c campaign) *sink.Sink
}{
	{"emunet", runEmunet},
	{"chan", func(t *testing.T, c campaign) *sink.Sink { return runLive(t, c, false) }},
	{"udp", func(t *testing.T, c campaign) *sink.Sink { return runLive(t, c, true) }},
}

func runEmunet(t *testing.T, c campaign) *sink.Sink {
	n, err := emunet.New(emunet.Config{
		Topo:         c.topo.Topology,
		Seed:         1,
		WrapAround:   true,
		ChannelState: c.channelState,
		Journal:      c.journal,
		Snapstore:    c.store,
		Invariants:   c.invariants,
		Registry:     c.registry,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := n.Engine()
	var i int
	eng.NewTicker(20*sim.Microsecond, func() {
		i++
		src, dst := trafficPair(i)
		pkt := n.NewPacketFor(src)
		pkt.DstHost, pkt.SrcPort, pkt.DstPort, pkt.Proto, pkt.Size = uint32(dst), uint16(i), 80, 6, 300
		n.InjectFromHost(src, pkt)
	})
	n.RunFor(2 * sim.Millisecond)
	for k := 0; k < conformanceSnapshots; k++ {
		if _, err := n.ScheduleSnapshot(eng.Now().Add(sim.Millisecond)); err != nil {
			t.Fatal(err)
		}
		// One snapshot at a time, as the goroutine runtime takes them.
		deadline := eng.Now().Add(sim.Second)
		for len(n.Snapshots()) <= k && eng.Now() < deadline {
			n.RunFor(sim.Millisecond)
		}
	}
	return n.Sink()
}

func runLive(t *testing.T, c campaign, udp bool) *sink.Sink {
	n := startNet(t, Config{
		Topo:         c.topo.Topology,
		UDP:          udp,
		WrapAround:   true,
		ChannelState: c.channelState,
		Journal:      c.journal,
		Snapstore:    c.store,
		Invariants:   c.invariants,
		Registry:     c.registry,
	})
	defer traffic(n, func(i int) (topology.HostID, *packet.Packet) {
		src, dst := trafficPair(i)
		return src, &packet.Packet{DstHost: uint32(dst), SrcPort: uint16(i), DstPort: 80, Proto: 6, Size: 300}
	})()
	for k := 0; k < conformanceSnapshots; k++ {
		_, done, err := n.TakeSnapshot(time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		await(t, done, 15*time.Second, fmt.Sprintf("snapshot %d", k))
	}
	return n.Sink()
}

// trafficPair spreads packet i across host pairs on both leaves.
func trafficPair(i int) (src, dst topology.HostID) {
	return topology.HostID(i % 6), topology.HostID((i + 1 + i/6%5) % 6)
}

// TestRuntimeConformance runs one campaign on every runtime — the
// discrete-event emulation and the goroutine runtime over both
// transports — with and without channel state, and holds them to one
// contract: a clean audit, every snapshot consistent with nobody
// excluded, no invariant violation, and the same served surface.
func TestRuntimeConformance(t *testing.T) {
	for _, rt := range runtimes {
		for _, cs := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/channel-state=%v", rt.name, cs), func(t *testing.T) {
				c := campaign{
					topo:         leafSpine(t),
					channelState: cs,
					journal:      journal.NewSet(0),
					store:        snapstore.New(snapstore.Config{}),
					invariants:   invariant.New(invariant.Config{}),
					registry:     telemetry.NewRegistry(),
				}
				// Every leaf's host-facing ingress counters only grow.
				var units []dataplane.UnitID
				for _, leaf := range c.topo.Leaves {
					for port := 0; port < 3; port++ {
						units = append(units, dataplane.UnitID{Node: leaf, Port: port, Dir: dataplane.Ingress})
					}
				}
				c.invariants.Register(invariant.Monotone("host-ingress-monotone", units))

				s := rt.run(t, c)
				checkConformance(t, s, c)
			})
		}
	}
}

func checkConformance(t *testing.T, s *sink.Sink, c campaign) {
	t.Helper()
	snaps := s.Snapshots()
	if len(snaps) != conformanceSnapshots {
		t.Fatalf("%d snapshots completed, want %d", len(snaps), conformanceSnapshots)
	}
	for _, g := range snaps {
		if !g.Consistent || len(g.Excluded) != 0 {
			t.Errorf("snapshot %d: consistent=%v excluded=%v", g.ID, g.Consistent, g.Excluded)
		}
	}
	rep := s.Audit()
	consistent, inconsistent, incomplete := rep.Counts()
	if consistent != conformanceSnapshots || inconsistent != 0 || incomplete != 0 || rep.Disagreements != 0 {
		t.Errorf("audit: %d consistent, %d inconsistent, %d incomplete, %d disagreements",
			consistent, inconsistent, incomplete, rep.Disagreements)
		for _, v := range rep.Verdicts {
			if v.Kind != audit.Consistent {
				t.Logf("snapshot %d %s: %s", v.SnapshotID, v.Kind, v.Cause)
			}
		}
	}
	st := c.invariants.Status()
	if len(st) != 1 || st[0].Evals != conformanceSnapshots || st[0].Violations != 0 {
		t.Errorf("invariant status %+v, want %d evals and no violation", st, conformanceSnapshots)
	}

	srv := httptest.NewServer(telemetry.NewMuxConfig(s.MuxConfig(c.registry, nil, nil)))
	defer srv.Close()
	for _, path := range []string{"/metrics", "/healthz", "/snapshots", "/invariants", "/audit"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, resp.StatusCode)
		}
	}
}
