package live

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"speedlight/internal/dataplane"
	"speedlight/internal/observer"
	"speedlight/internal/packet"
	"speedlight/internal/sim"
	"speedlight/internal/topology"
)

func leafSpine(t testing.TB) *topology.LeafSpine {
	t.Helper()
	ls, err := topology.NewLeafSpine(topology.LeafSpineConfig{
		Leaves: 2, Spines: 2, HostsPerLeaf: 3,
		HostLinkLatency:   sim.Microsecond,
		FabricLinkLatency: sim.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ls
}

// transports names every transport the runtime runs over; each
// runtime test runs once per row.
var transports = []struct {
	name string
	udp  bool
}{
	{"chan", false},
	{"udp", true},
}

// eachTransport runs body as one subtest per transport, with cfg's UDP
// field set for that row.
func eachTransport(t *testing.T, body func(t *testing.T, udp bool)) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) { body(t, tr.udp) })
	}
}

// startNet builds and starts a network, stopping it when the test ends.
func startNet(t *testing.T, cfg Config) *Network {
	t.Helper()
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	t.Cleanup(n.Stop)
	return n
}

// await waits for a snapshot, failing the test after timeout.
func await(t *testing.T, done <-chan *observer.GlobalSnapshot, timeout time.Duration, what string) *observer.GlobalSnapshot {
	t.Helper()
	select {
	case g := <-done:
		return g
	case <-time.After(timeout):
		t.Fatalf("%s never completed", what)
		return nil
	}
}

// waitDelivered waits until want packets have reached hosts.
func waitDelivered(t *testing.T, delivered *atomic.Int64, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for delivered.Load() < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := delivered.Load(); got != want {
		t.Fatalf("delivered %d of %d", got, want)
	}
}

// traffic injects packets from gen as fast as the transport takes them
// until the returned stop function is called; stop waits for the
// injector to exit.
func traffic(n *Network, gen func(i int) (topology.HostID, *packet.Packet)) (stop func()) {
	var halt atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !halt.Load(); i++ {
			n.Inject(gen(i))
			if i%64 == 0 {
				time.Sleep(time.Microsecond)
			}
		}
	}()
	return func() { halt.Store(true); wg.Wait() }
}

func TestNewValidation(t *testing.T) {
	eachTransport(t, func(t *testing.T, udp bool) {
		if _, err := New(Config{UDP: udp}); err == nil {
			t.Error("nil topology accepted")
		}
	})
}

func TestDeliveryAcrossFabric(t *testing.T) {
	eachTransport(t, func(t *testing.T, udp bool) {
		ls := leafSpine(t)
		var delivered atomic.Int64
		n := startNet(t, Config{
			Topo:      ls.Topology,
			UDP:       udp,
			OnDeliver: func(_ *packet.Packet, _ topology.HostID) { delivered.Add(1) },
		})
		for i := 0; i < 100; i++ {
			if err := n.Inject(0, &packet.Packet{DstHost: 3, Size: 100, SrcPort: uint16(i), Proto: 6}); err != nil {
				t.Fatal(err)
			}
		}
		waitDelivered(t, &delivered, 100)
	})
}

func TestSnapshotUnderConcurrentTraffic(t *testing.T) {
	eachTransport(t, func(t *testing.T, udp bool) {
		ls := leafSpine(t)
		n := startNet(t, Config{Topo: ls.Topology, UDP: udp})

		// Concurrent traffic from every host while the snapshot runs.
		for h := topology.HostID(0); h < 6; h++ {
			stop := traffic(n, func(i int) (topology.HostID, *packet.Packet) {
				dst := topology.HostID((int(h) + 1 + i%5) % 6)
				return h, &packet.Packet{DstHost: uint32(dst), SrcPort: uint16(i), DstPort: 9000, Proto: 6, Size: 500}
			})
			defer stop()
		}

		id, done, err := n.TakeSnapshot(5 * time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		g := await(t, done, 10*time.Second, "snapshot")
		if g.ID != id {
			t.Errorf("completed id %d, want %d", g.ID, id)
		}
		if !g.Consistent {
			t.Error("snapshot inconsistent")
		}
		if len(g.Results) != 28 {
			t.Errorf("results = %d, want 28 units", len(g.Results))
		}
		var total uint64
		for _, r := range g.Results {
			total += r.Value
		}
		if total == 0 {
			t.Error("all-zero snapshot despite traffic")
		}
	})
}

func TestSnapshotSequenceMonotoneCounters(t *testing.T) {
	eachTransport(t, func(t *testing.T, udp bool) {
		ls := leafSpine(t)
		n := startNet(t, Config{Topo: ls.Topology, UDP: udp})
		defer traffic(n, func(i int) (topology.HostID, *packet.Packet) {
			return 1, &packet.Packet{DstHost: 4, SrcPort: uint16(i), Proto: 6, Size: 200}
		})()

		last := map[dataplane.UnitID]uint64{}
		for round := 0; round < 5; round++ {
			_, done, err := n.TakeSnapshot(time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			g := await(t, done, 10*time.Second, "snapshot")
			for u, res := range g.Results {
				if !res.Consistent {
					continue
				}
				if res.Value < last[u] {
					t.Errorf("unit %v count regressed: %d -> %d", u, last[u], res.Value)
				}
				last[u] = res.Value
			}
		}
	})
}

func TestQuiescentSnapshotExactCounts(t *testing.T) {
	// With the network quiet, every unit on a flow's path must report
	// exactly the packets that crossed it.
	eachTransport(t, func(t *testing.T, udp bool) {
		ls := leafSpine(t)
		var delivered atomic.Int64
		n := startNet(t, Config{
			Topo:      ls.Topology,
			UDP:       udp,
			OnDeliver: func(*packet.Packet, topology.HostID) { delivered.Add(1) },
		})

		const N = 57
		for i := 0; i < N; i++ {
			// Same-leaf traffic: host 0 -> host 1, single deterministic path.
			if err := n.Inject(0, &packet.Packet{DstHost: 1, SrcPort: 7, DstPort: 80, Proto: 6, Size: 100}); err != nil {
				t.Fatal(err)
			}
		}
		waitDelivered(t, &delivered, N)

		_, done, err := n.TakeSnapshot(time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		g := await(t, done, 10*time.Second, "snapshot")
		leaf0 := ls.Leaves[0]
		for _, id := range []dataplane.UnitID{
			{Node: leaf0, Port: 0, Dir: dataplane.Ingress},
			{Node: leaf0, Port: 1, Dir: dataplane.Egress},
		} {
			v, ok := g.Value(id)
			if !ok {
				t.Errorf("unit %v missing", id)
				continue
			}
			if v != N {
				t.Errorf("unit %v = %d, want %d", id, v, N)
			}
		}
	})
}

func TestManySequentialSnapshots(t *testing.T) {
	eachTransport(t, func(t *testing.T, udp bool) {
		ls := leafSpine(t)
		n := startNet(t, Config{Topo: ls.Topology, UDP: udp, MaxID: 16, WrapAround: true})
		// More snapshots than the wrapped ID space: exercises rollover
		// in a concurrent run.
		for i := 0; i < 40; i++ {
			_, done, err := n.TakeSnapshot(100 * time.Microsecond)
			if err != nil {
				t.Fatal(err)
			}
			await(t, done, 10*time.Second, "snapshot")
		}
		if got := len(n.Snapshots()); got != 40 {
			t.Errorf("completed %d of 40", got)
		}
	})
}

func TestStopIdempotentAndInjectAfterStop(t *testing.T) {
	eachTransport(t, func(t *testing.T, udp bool) {
		ls := leafSpine(t)
		n, err := New(Config{Topo: ls.Topology, UDP: udp})
		if err != nil {
			t.Fatal(err)
		}
		n.Start()
		n.Stop()
		n.Stop() // must not panic or hang
		if err := n.Inject(0, &packet.Packet{DstHost: 1}); !errors.Is(err, errStopped) {
			t.Errorf("Inject after Stop: %v, want %v", err, errStopped)
		}
		if _, _, err := n.TakeSnapshot(time.Millisecond); !errors.Is(err, errStopped) {
			t.Errorf("TakeSnapshot after Stop: %v, want %v", err, errStopped)
		}
	})
}

func TestChannelStateSnapshotLive(t *testing.T) {
	// Channel-state snapshots under the concurrent runtime: completion
	// needs every FIFO channel to advance, driven by traffic plus the
	// retry-time marker broadcasts.
	eachTransport(t, func(t *testing.T, udp bool) {
		ls := leafSpine(t)
		n := startNet(t, Config{
			Topo:         ls.Topology,
			UDP:          udp,
			ChannelState: true,
			RetryEvery:   10 * time.Millisecond,
		})
		defer traffic(n, func(i int) (topology.HostID, *packet.Packet) {
			return topology.HostID(i % 6), &packet.Packet{
				DstHost: uint32((i + 3) % 6), SrcPort: uint16(i), DstPort: 80, Proto: 6, Size: 400,
			}
		})()

		for round := 0; round < 3; round++ {
			_, done, err := n.TakeSnapshot(time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			g := await(t, done, 15*time.Second, "channel-state snapshot")
			if len(g.Results) != 28 {
				t.Errorf("round %d: results = %d", round, len(g.Results))
			}
			if len(g.Excluded) != 0 {
				t.Errorf("round %d: excluded %v", round, g.Excluded)
			}
		}
	})
}

// dropFirstInitiation loses the first initiation addressed to one
// switch, as a lossy management network would.
type dropFirstInitiation struct {
	transport
	victim  int
	dropped atomic.Bool
}

func (d *dropFirstInitiation) send(to int, m msg, wait bool) error {
	if to == d.victim && m.kind == msgInitiate && d.dropped.CompareAndSwap(false, true) {
		return nil
	}
	return d.transport.send(to, m, wait)
}

// TestRetryRecoversLostInitiation: a switch that never hears the
// initiation holds the snapshot open until the observer's retry
// re-initiates and polls it; with retries disabled the snapshot stays
// stuck.
func TestRetryRecoversLostInitiation(t *testing.T) {
	eachTransport(t, func(t *testing.T, udp bool) {
		for _, retry := range []time.Duration{5 * time.Millisecond, -1} {
			ls := leafSpine(t)
			n, err := New(Config{Topo: ls.Topology, UDP: udp, RetryEvery: retry})
			if err != nil {
				t.Fatal(err)
			}
			lossy := &dropFirstInitiation{transport: n.tr, victim: int(ls.Spines[0])}
			n.tr = lossy
			n.Start()
			_, done, err := n.TakeSnapshot(0)
			if err != nil {
				t.Fatal(err)
			}
			if retry < 0 {
				select {
				case <-done:
					t.Error("snapshot completed without the lost initiation or a retry")
				case <-time.After(200 * time.Millisecond):
				}
			} else {
				g := await(t, done, 10*time.Second, "snapshot after a lost initiation")
				if !g.Consistent || len(g.Results) != 28 {
					t.Errorf("recovered snapshot consistent=%v results=%d", g.Consistent, len(g.Results))
				}
			}
			n.Stop()
			if !lossy.dropped.Load() {
				t.Error("no initiation was dropped")
			}
		}
	})
}
