// Package emunet assembles the full Speedlight system on the
// discrete-event simulator: switches (data plane + control plane +
// PTP-disciplined clock), links with propagation and serialization
// delay, bounded egress queues, the lossy notification path to each
// switch CPU with a modeled per-notification service time, and a
// snapshot observer connected over the network.
//
// This is the stand-in for the paper's Wedge100BF testbed (and for the
// large-network simulation behind its Figure 11). All randomness comes
// from the engine's seed; runs are reproducible.
package emunet

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"speedlight/internal/audit"
	"speedlight/internal/clock"
	"speedlight/internal/control"
	"speedlight/internal/core"
	"speedlight/internal/counters"
	"speedlight/internal/dataplane"
	"speedlight/internal/dist"
	"speedlight/internal/epochtrace"
	"speedlight/internal/invariant"
	"speedlight/internal/journal"
	"speedlight/internal/observer"
	"speedlight/internal/packet"
	"speedlight/internal/routing"
	"speedlight/internal/sim"
	"speedlight/internal/sink"
	"speedlight/internal/snapstore"
	"speedlight/internal/telemetry"
	"speedlight/internal/topology"
)

// BroadcastHost is the destination address of control-plane marker
// broadcasts. Markers advance snapshot IDs across every channel of the
// receiving device and are then dropped (single-hop scope), providing
// the liveness mechanism of Section 6 for traffic-free channels.
const BroadcastHost = topology.HostID(0xFFFFFFFF)

// Config parameterizes an emulated network.
type Config struct {
	// Topo is the network topology. Required.
	Topo *topology.Topology
	// Seed drives all randomness.
	Seed int64

	// Shards selects the simulation engine: 0 or 1 runs the serial
	// reference engine; >= 2 runs the conservative parallel engine with
	// that many worker shards. Both produce byte-identical journals,
	// audit reports, and snapshots for the same seed; see DESIGN.md for
	// the determinism contract. With shards, every switch-to-switch
	// link crossing a shard boundary must have positive latency.
	Shards int
	// ShardOf, when set, pins each switch to a shard in [0, Shards).
	// Nil assigns switches round-robin in topology order.
	ShardOf func(node topology.NodeID) int

	// Snapshot protocol parameters.
	MaxID        uint32
	WrapAround   bool
	ChannelState bool

	// NumCoS is the number of Class-of-Service levels (strict priority;
	// higher class wins). Each class is an independent FIFO logical
	// channel in the snapshot model. Zero means 1.
	NumCoS int

	// Metrics selects each unit's snapshot target. Nil defaults to
	// per-unit packet counters. The factory may return nil for "use the
	// default for this unit".
	Metrics func(net *Network, id dataplane.UnitID) core.Metric

	// NewBalancer builds each switch's load balancer. Nil defaults to
	// ECMP.
	NewBalancer func(node topology.NodeID, r *rand.Rand) routing.Balancer

	// Clock is the control planes' synchronization quality. The zero
	// value defaults to clock.PTP().
	Clock clock.Config

	// CPNotifLatency is the data-plane-to-CPU delivery latency of a
	// notification (DMA + kernel). Default: ~10 µs lognormal.
	CPNotifLatency dist.Dist
	// CPServiceTime is the control plane's per-notification processing
	// time — the bottleneck behind the paper's Figure 10. Default:
	// ~110 µs lognormal (calibrated to ~70 snapshots/s at 64 ports).
	CPServiceTime dist.Dist
	// CPServiceTimeFor overrides CPServiceTime per switch: a non-nil
	// return replaces the global distribution for that node. Fault
	// injection uses it to slow one control plane and check that the
	// epoch tracer's critical path names the straggler.
	CPServiceTimeFor func(node topology.NodeID) dist.Dist
	// InitiationLatency is the delay between a control plane's local
	// deadline and the initiation reaching the data plane (scheduler
	// wakeup + driver). Default: ~2 µs lognormal with a 15 µs p99.
	InitiationLatency dist.Dist
	// ObserverLatency is the control-plane-to-observer result delivery
	// time. Default: 50 µs constant.
	ObserverLatency dist.Dist
	// ObserverMinLatency floors sampled observer latencies and doubles
	// as the conservative lookahead of the switch-to-observer shard
	// pairs: result deliveries execute in the observer's own domain (so
	// snapshot assembly, store ingest and invariant evaluation run off
	// the serialized global domain), and the parallel engine needs a
	// positive lower bound on their delivery time. Samples below the
	// floor are raised to it — identically on both engines, keeping
	// serial and sharded runs byte-equal. Default 1 µs, far under the
	// 50 µs default delivery time.
	ObserverMinLatency sim.Duration

	// LinkRateBps is the transmission rate of every link. Default
	// 25 Gb/s (the testbed's server links).
	LinkRateBps float64
	// QueueCapacity bounds each egress queue, in packets. Default 512.
	QueueCapacity int
	// NotifCapacity bounds each switch CPU's notification socket
	// buffer. Default 4096.
	NotifCapacity int

	// RetryAfter / ExcludeAfter configure the observer's recovery
	// timers (zero keeps the defaults: 5 ms / 50 ms). Negative disables.
	RetryAfter   sim.Duration
	ExcludeAfter sim.Duration

	// LinkLossProb drops each switch-to-switch wire transmission with
	// this probability (failure injection). The snapshot protocol is
	// designed to survive loss: IDs piggyback on every packet and the
	// control planes re-initiate and poll (Section 6).
	LinkLossProb float64

	// SnapshotDisabled lists switches that forward traffic but do not
	// participate in snapshots (partial deployment, Section 10).
	SnapshotDisabled map[topology.NodeID]bool

	// OnDeliver, when set, observes every packet delivered to a host.
	// Setting it routes deliveries through the serializing global
	// domain, so invocations are single-threaded and deterministically
	// ordered even under Shards > 1 (at some cost to scaling).
	OnDeliver func(pkt *packet.Packet, host topology.HostID, now sim.Time)

	// OnProgress, when set, observes every progress-relevant data-plane
	// notification (the ones entering synchronization windows), keyed by
	// the unwrapped snapshot ID it advances. Experiments use it to
	// collect per-unit timing distributions. Under Shards > 1 it is
	// invoked from concurrent shard workers (serialized only per
	// switch): the hook must be thread-safe, and must not depend on
	// cross-switch invocation order.
	OnProgress func(id packet.SeqID, at sim.Time)

	// OnInject, when set, observes every host packet injection at its
	// injection time — e.g., to record a workload as a replayable
	// trace.
	OnInject func(pkt *packet.Packet, host topology.HostID, at sim.Time)

	// Registry, when set, enables telemetry: every protocol layer's
	// counters and histograms are registered on it. Nil disables
	// instrumentation at zero hot-path cost.
	Registry *telemetry.Registry
	// Tracer, when set, records snapshot-lifecycle spans.
	Tracer *telemetry.Tracer

	// Journal, when set, enables the flight recorder: every protocol
	// layer appends structured events to its per-switch rings, and
	// Network.Audit() can mechanically verify the run. Nil disables
	// journaling at one nil check per potential event.
	Journal *journal.Set
	// OnAnomaly, when set, fires when a snapshot finalizes inconsistent
	// or with exclusions, or when a repeat retry of the same snapshot
	// shows recovery is not unsticking it —
	// with the flight-recorder tail at that moment (nil without a
	// Journal).
	OnAnomaly func(reason string, snapshotID packet.SeqID, dump []journal.Event)

	// Snapstore, when set, ingests every completed global snapshot as a
	// sealed delta-encoded epoch in the snapshot-history store (see
	// internal/snapstore). Ingestion runs on the observer's completion
	// path in the serialized global domain.
	Snapstore *snapstore.Store
	// Invariants, when set, streams every epoch sealed into Snapstore
	// through the registered invariants; each violation fires OnAnomaly
	// with a flight-recorder dump. Requires Snapstore.
	Invariants *invariant.Engine
}

func (c *Config) setDefaults() {
	if c.MaxID == 0 {
		c.MaxID = 256
	}
	if c.NumCoS <= 0 {
		c.NumCoS = 1
	}
	if c.Clock.ResidualOffset == nil {
		c.Clock = clock.PTP()
	}
	if c.CPNotifLatency == nil {
		c.CPNotifLatency = dist.LogNormalFromMedianP99(10_000, 40_000)
	}
	if c.CPServiceTime == nil {
		c.CPServiceTime = dist.LogNormalFromMedianP99(110_000, 200_000)
	}
	if c.InitiationLatency == nil {
		c.InitiationLatency = dist.LogNormalFromMedianP99(2_000, 15_000)
	}
	if c.ObserverLatency == nil {
		c.ObserverLatency = dist.Constant{V: 50_000}
	}
	if c.ObserverMinLatency <= 0 {
		c.ObserverMinLatency = sim.Microsecond
	}
	if c.LinkRateBps == 0 {
		c.LinkRateBps = 25e9
	}
	if c.QueueCapacity == 0 {
		c.QueueCapacity = 512
	}
	if c.NotifCapacity == 0 {
		c.NotifCapacity = 4096
	}
	if c.RetryAfter == 0 {
		c.RetryAfter = 5 * sim.Millisecond
	}
	if c.ExcludeAfter == 0 {
		c.ExcludeAfter = 50 * sim.Millisecond
	}
}

// queuedPkt is one packet waiting in an egress queue.
type queuedPkt struct {
	pkt *packet.Packet
}

// pktFIFO is a head-indexed FIFO: pops advance a cursor instead of
// re-slicing the front (which strands the backing array's prefix and
// forces append to keep growing fresh arrays), and the buffer compacts
// once the dead prefix dominates. Steady state pushes and pops without
// allocating.
type pktFIFO struct {
	items []queuedPkt
	head  int
}

func (f *pktFIFO) len() int { return len(f.items) - f.head }

//speedlight:hotpath
func (f *pktFIFO) push(q queuedPkt) { f.items = append(f.items, q) }

//speedlight:hotpath
func (f *pktFIFO) peek() queuedPkt { return f.items[f.head] }

//speedlight:hotpath
func (f *pktFIFO) pop() queuedPkt {
	q := f.items[f.head]
	f.items[f.head].pkt = nil // unpin
	f.head++
	if f.head == len(f.items) {
		f.items = f.items[:0]
		f.head = 0
	} else if f.head >= 64 && f.head*2 >= len(f.items) {
		n := copy(f.items, f.items[f.head:])
		clearTail(f.items[n:])
		f.items = f.items[:n]
		f.head = 0
	}
	return q
}

func clearTail(s []queuedPkt) {
	for i := range s {
		s[i].pkt = nil
	}
}

// portQueue is one egress port's set of per-class FIFO queues with a
// single strict-priority transmitter: within a class order holds, but
// a higher class's packets overtake lower ones — exactly the CoS
// channel model of Section 4.1.
type portQueue struct {
	perCoS      []pktFIFO
	txScheduled bool
	drops       uint64
}

func (q *portQueue) length() int {
	n := 0
	for i := range q.perCoS {
		n += q.perCoS[i].len()
	}
	return n
}

// head returns the highest-priority non-empty class, or -1.
//
//speedlight:hotpath
func (q *portQueue) head() int {
	for cos := len(q.perCoS) - 1; cos >= 0; cos-- {
		if q.perCoS[cos].len() > 0 {
			return cos
		}
	}
	return -1
}

// EmuSwitch is one emulated switch: data plane, control plane, clock,
// and per-port egress queues.
type EmuSwitch struct {
	Node   topology.NodeID
	DP     *dataplane.Switch
	CP     *control.Plane
	Clock  *clock.Clock
	queues []*portQueue

	// dom is the switch's scheduling domain on the engine; proc is its
	// scheduling handle. All of this struct's mutable state is owned by
	// that domain: only its own events (or serialized global-domain
	// events) may touch it.
	dom  int
	proc sim.Proc

	cpBusy bool // notification processing loop active
	// cpService is the switch's per-notification service time — the
	// global Config.CPServiceTime unless CPServiceTimeFor overrides it.
	cpService dist.Dist

	// Churn state (see churn.go). down marks the switch out of the
	// fabric; gen is bumped on every down/up transition so in-flight
	// closure-free events armed against the old incarnation no-op
	// instead of touching flushed queues or a rebooted control plane;
	// linkDown marks administratively drained ports. All three are
	// written only from serialized global-domain events (workers
	// parked), so shard-context reads are race-free.
	down     bool
	gen      int64
	linkDown []bool
	rng      *rand.Rand
	// pkts counts this switch's wire arrivals (per-switch throughput).
	pkts *telemetry.Counter
	// ppool is the switch's packet free list (see packet.Pool): touched
	// only by this switch's domain events or with workers parked, and
	// balanced against other switches through the network's central
	// exchange.
	ppool packet.Pool
}

// QueueLen returns the occupancy of an egress queue in packets, summed
// over service classes.
func (s *EmuSwitch) QueueLen(port int) int { return s.queues[port].length() }

// QueueDrops returns packets dropped at a full egress queue.
func (s *EmuSwitch) QueueDrops(port int) uint64 { return s.queues[port].drops }

// syncWindow tracks the earliest and latest notification timestamps
// observed for one snapshot ID (the paper's synchronization metric,
// Section 8.1).
type syncWindow struct {
	min, max sim.Time
	count    int
	// first and last identify the earliest and latest contributing
	// notifications, for diagnosing stragglers.
	first, last SyncContributor
}

// SyncContributor identifies one notification that entered a snapshot's
// synchronization window.
type SyncContributor struct {
	Unit    dataplane.UnitID
	Channel int // -1 for a snapshot ID advance
	At      sim.Time
}

// Network is the emulated Speedlight deployment.
type Network struct {
	cfg Config
	eng sim.Sim
	// doms maps each switch to its scheduling domain (topology order,
	// starting at 1). The observer runs in its own domain right after
	// the switches; sim.GlobalDomain keeps only drivers, recovery
	// timers, and churn.
	doms map[topology.NodeID]int
	// gproc is the global domain's scheduling handle.
	gproc sim.Proc
	// obsDom/obsProc address the observer's domain: snapshot results,
	// snapstore ingest, invariant evaluation, and epoch-trace stamping
	// all execute there, off the coordinator's critical path.
	obsDom   int
	obsProc  sim.Proc
	topo     *topology.Topology
	fibs     map[topology.NodeID]*routing.FIB
	utilized map[topology.NodeID]map[[2]int]bool
	sws      map[topology.NodeID]*EmuSwitch
	obs      *observer.Observer
	// sink is the observer's completion path: done list, anomaly dumps,
	// snapstore ingest, invariants, audit and the served endpoints.
	sink *sink.Sink
	// retried marks snapshots the observer has already retried once;
	// a repeat retry means recovery is not unsticking them.
	retried map[packet.SeqID]bool
	// syncMu guards syncs: notifications record windows from concurrent
	// shard workers.
	syncMu sync.Mutex
	syncs  map[packet.SeqID]*syncWindow
	gauges map[dataplane.UnitID]*counters.Gauge
	// wireDrops counts packets lost to injected link failures (atomic:
	// switch domains on different shards drop concurrently).
	wireDrops atomic.Uint64
	// churnDrops counts packets eaten by churn: arrivals at a down
	// switch, and transmissions onto a drained link (atomic, as
	// wireDrops).
	churnDrops atomic.Uint64
	// gateSets mirrors each unit's completion-gating channels, used to
	// filter synchronization recording to progress-relevant
	// notifications.
	gateSets map[dataplane.UnitID]map[int]bool

	// Telemetry handles; all nil (no-op) when cfg.Registry is nil.
	dpTel *dataplane.Telemetry
	cpTel *control.Telemetry
	tel   netTelemetry

	// Packet pooling: central is the exchange behind every switch's
	// free list; dpool is the driver/global-context pool (NewPacket,
	// global-domain deliveries).
	central *packet.Central
	dpool   packet.Pool

	// Cached closure-free callbacks (method values evaluate to a fresh
	// allocation each time, so they are bound once here). These carry
	// the hottest per-packet schedules: wire arrival, head-of-line
	// transmit, host delivery, and the CP notification loop.
	arriveFn        sim.CallFn
	txFn            sim.CallFn
	deliverLocalFn  sim.CallFn
	deliverGlobalFn sim.CallFn
	cpFn            sim.CallFn
}

// netTelemetry is the emulation harness's own metric set, covering the
// layers the protocol packages cannot see: egress queues, the wire,
// and assembled-snapshot quality.
type netTelemetry struct {
	syncSpreadUS   *telemetry.Histogram
	queueDrops     *telemetry.Counter
	queueHighWater *telemetry.Gauge
	wireDrops      *telemetry.Counter
	injected       *telemetry.Counter
	delivered      *telemetry.Counter
	switchPkts     *telemetry.CounterVec
}

func newNetTelemetry(reg *telemetry.Registry) netTelemetry {
	return netTelemetry{
		syncSpreadUS: reg.Histogram("speedlight_net_sync_spread_us",
			"snapshot synchronization spread, earliest to latest notification (microseconds)", telemetry.LatencyBucketsUS),
		queueDrops:     reg.Counter("speedlight_net_queue_drops_total", "packets dropped at full egress queues"),
		queueHighWater: reg.Gauge("speedlight_net_queue_high_water", "deepest egress queue occupancy"),
		wireDrops:      reg.Counter("speedlight_net_wire_drops_total", "packets lost to injected link failures"),
		injected:       reg.Counter("speedlight_net_packets_injected_total", "packets injected from hosts"),
		delivered:      reg.Counter("speedlight_net_packets_delivered_total", "packets delivered to hosts"),
		switchPkts:     reg.CounterVec("speedlight_net_switch_packets_total", "wire arrivals per switch", "switch"),
	}
}

// buildEngine picks the serial or sharded engine and assigns scheduling
// domains: switch i of the topology is domain i+1, and the observer
// runs in its own domain right after the switches (see observerDomain).
// sim.GlobalDomain keeps only what truly serializes: drivers, recovery
// timers, and churn. On the sharded engine the cross-shard channel set
// is declared per pair — each ordered shard pair gets the minimum
// latency of the switch links that actually cross it as its lookahead —
// so shards synchronize against their real neighbors instead of a
// fleet-wide horizon.
func buildEngine(cfg *Config) (sim.Sim, map[topology.NodeID]int, error) {
	doms := make(map[topology.NodeID]int, len(cfg.Topo.Switches))
	for i, sw := range cfg.Topo.Switches {
		doms[sw.ID] = i + 1
	}
	if cfg.Shards <= 1 {
		return sim.NewEngine(cfg.Seed), doms, nil
	}
	shard := make(map[topology.NodeID]int, len(doms))
	for i, sw := range cfg.Topo.Switches {
		s := i % cfg.Shards
		if cfg.ShardOf != nil {
			s = cfg.ShardOf(sw.ID)
			if s < 0 || s >= cfg.Shards {
				return nil, nil, fmt.Errorf("emunet: ShardOf(%d) = %d out of range [0,%d)", sw.ID, s, cfg.Shards)
			}
		}
		shard[sw.ID] = s
	}
	// The engine-wide lookahead only seeds the default complete pair
	// graph, which SetShardLinks below replaces with the topology's
	// own pairs; any positive value will do.
	p := sim.NewParallel(cfg.Seed, cfg.Shards, cfg.ObserverMinLatency)
	for _, sw := range cfg.Topo.Switches {
		p.Place(doms[sw.ID], shard[sw.ID])
	}
	// The observer domain follows the same modulo placement rule as the
	// switches (it is "domain len(switches)+1"), so its shard assignment
	// is stable as topologies grow.
	obsShard := len(cfg.Topo.Switches) % cfg.Shards
	p.Place(observerDomain(cfg.Topo), obsShard)

	// Declare the actual cross-shard channel set. Each ordered shard
	// pair's lookahead is the minimum latency among the switch links
	// whose sender lands on the pair's source shard and receiver on its
	// destination shard — wire hops are scheduled with the sending
	// port's latency, so that bound is exact, not merely conservative.
	// Wire hops are the only cross-shard sends between switches, so a
	// zero-latency link across shards has no lookahead and is refused.
	type shardPair struct{ from, to int }
	pairMin := make(map[shardPair]sim.Duration)
	declare := func(from, to int, l sim.Duration) {
		if from == to {
			return
		}
		pr := shardPair{from, to}
		if cur, ok := pairMin[pr]; !ok || l < cur {
			pairMin[pr] = l
		}
	}
	for _, sw := range cfg.Topo.Switches {
		for _, peer := range sw.Ports {
			if peer.Kind != topology.PeerSwitch {
				continue
			}
			from, to, l := shard[sw.ID], shard[peer.Node], sim.Duration(peer.Latency)
			if from != to && l <= 0 {
				return nil, nil, fmt.Errorf("emunet: link %d<->%d crosses shards with zero latency; sharded simulation needs positive cross-shard link latency", sw.ID, peer.Node)
			}
			declare(from, to, l)
		}
	}
	// Every switch shard reports snapshot results to the observer's
	// shard; those sends are floored at ObserverMinLatency, which is
	// therefore the pair's lookahead.
	for _, sw := range cfg.Topo.Switches {
		declare(shard[sw.ID], obsShard, cfg.ObserverMinLatency)
	}
	links := make([]sim.ShardLink, 0, len(pairMin))
	for pr, l := range pairMin {
		links = append(links, sim.ShardLink{From: pr.from, To: pr.to, Lookahead: l})
	}
	sort.Slice(links, func(a, b int) bool {
		if links[a].From != links[b].From {
			return links[a].From < links[b].From
		}
		return links[a].To < links[b].To
	})
	p.SetShardLinks(links)
	return p, doms, nil
}

// observerDomain returns the scheduling domain that hosts the snapshot
// observer: the slot right after the last switch domain. Keeping the
// observer out of sim.GlobalDomain lets snapstore ingest, invariant
// evaluation, and epoch-trace stamping run on a shard worker instead of
// serializing on the coordinator.
func observerDomain(topo *topology.Topology) int { return len(topo.Switches) + 1 }

// New builds and wires the emulated network.
func New(cfg Config) (*Network, error) {
	if cfg.Topo == nil {
		return nil, fmt.Errorf("emunet: nil topology")
	}
	cfg.setDefaults()
	eng, doms, err := buildEngine(&cfg)
	if err != nil {
		return nil, err
	}
	if p, ok := eng.(*sim.Parallel); ok && cfg.Registry != nil {
		// Publish per-shard barrier wait/work counters. The wall clock
		// arrives as an injected func so this package stays free of
		// direct time reads; the profiler observes rounds without
		// perturbing the deterministic schedule.
		p.EnableBarrierMetrics(cfg.Registry, telemetry.NowNs)
	}

	fibs, err := routing.ComputeFIBs(cfg.Topo)
	if err != nil {
		return nil, err
	}

	n := &Network{
		cfg:      cfg,
		eng:      eng,
		doms:     doms,
		gproc:    eng.Proc(sim.GlobalDomain),
		obsDom:   observerDomain(cfg.Topo),
		topo:     cfg.Topo,
		fibs:     fibs,
		utilized: routing.UtilizedPairs(cfg.Topo, fibs),
		sws:      make(map[topology.NodeID]*EmuSwitch),
		retried:  make(map[packet.SeqID]bool),
		syncs:    make(map[packet.SeqID]*syncWindow),
		gauges:   make(map[dataplane.UnitID]*counters.Gauge),
		gateSets: make(map[dataplane.UnitID]map[int]bool),
		dpTel:    dataplane.NewTelemetry(cfg.Registry),
		cpTel:    control.NewTelemetry(cfg.Registry),
		tel:      newNetTelemetry(cfg.Registry),
		central:  packet.NewCentral(),
	}
	n.obsProc = eng.Proc(n.obsDom)
	n.dpool = n.central.NewPool()
	n.arriveFn = n.arriveCall
	n.txFn = n.txCall
	n.deliverLocalFn = n.deliverLocalCall
	n.deliverGlobalFn = n.deliverGlobalCall
	n.cpFn = n.cpCall

	n.sink = sink.New(sink.Config{
		MaxID:        cfg.MaxID,
		WrapAround:   cfg.WrapAround,
		ChannelState: cfg.ChannelState,
		Journal:      cfg.Journal,
		OnAnomaly:    cfg.OnAnomaly,
		Snapstore:    cfg.Snapstore,
		Invariants:   cfg.Invariants,
	})

	obs, err := observer.New(observer.Config{
		MaxID:        cfg.MaxID,
		WrapAround:   cfg.WrapAround,
		RetryAfter:   nonNeg(cfg.RetryAfter),
		ExcludeAfter: nonNeg(cfg.ExcludeAfter),
		Telemetry:    observer.NewTelemetry(cfg.Registry),
		Tracer:       cfg.Tracer,
		Journal:      cfg.Journal.Observer(),
		OnComplete: func(g *observer.GlobalSnapshot) {
			delete(n.retried, g.ID)
			var sync sim.Duration
			if d, ok := n.SyncSpread(g.ID); ok {
				sync = d
				n.tel.syncSpreadUS.Observe(d.Micros())
			}
			n.sink.Complete(g, sync)
		},
	})
	if err != nil {
		return nil, err
	}
	n.obs = obs

	for _, swSpec := range cfg.Topo.Switches {
		if err := n.buildSwitch(swSpec); err != nil {
			return nil, err
		}
	}

	// Register snapshot-enabled switches with the observer and start
	// their clock discipline tickers, in topology order for
	// deterministic event sequencing. Each clock ticks in its own
	// switch's domain: the clock is switch state.
	for _, swSpec := range cfg.Topo.Switches {
		es := n.sws[swSpec.ID]
		if !cfg.SnapshotDisabled[swSpec.ID] {
			n.obs.Register(swSpec.ID, es.DP.UnitIDs())
		}
		es.proc.NewTicker(sim.Duration(es.Clock.SyncInterval()), func() {
			es.Clock.Sync(es.proc.Now())
		})
	}

	// Observer recovery ticker: global-domain, so it may touch any
	// switch's state (workers are parked while it runs).
	if cfg.RetryAfter > 0 || cfg.ExcludeAfter > 0 {
		n.gproc.NewTicker(sim.Millisecond, func() { n.handleTimeouts() })
	}

	return n, nil
}

func nonNeg(d sim.Duration) sim.Duration {
	if d < 0 {
		return 0
	}
	return d
}

func (n *Network) buildSwitch(spec *topology.Switch) error {
	cfg := n.cfg
	node := spec.ID
	es := &EmuSwitch{Node: node, dom: n.doms[node], rng: n.eng.NewRand()}
	es.proc = n.eng.Proc(es.dom)
	es.cpService = cfg.CPServiceTime
	if cfg.CPServiceTimeFor != nil {
		if d := cfg.CPServiceTimeFor(node); d != nil {
			es.cpService = d
		}
	}
	if n.tel.switchPkts != nil {
		es.pkts = n.tel.switchPkts.With(fmt.Sprint(node))
	}

	if err := n.provisionPlanes(es, spec); err != nil {
		return err
	}
	es.Clock = clock.New(cfg.Clock, n.eng.NewRand())

	es.queues = make([]*portQueue, len(spec.Ports))
	for i := range es.queues {
		es.queues[i] = &portQueue{perCoS: make([]pktFIFO, cfg.NumCoS)}
	}
	es.linkDown = make([]bool, len(spec.Ports))
	es.ppool = n.central.NewPool()
	n.sws[node] = es
	return nil
}

// provisionPlanes builds (or rebuilds) a switch's data and control
// planes: dataplane registers start zeroed, the forwarding config is
// pushed from the network's current FIBs, and completion gating is
// derived from the current utilized-pair map. Initial construction
// calls it from the driver; SetSwitchUp calls it from a global-domain
// event to model a reboot re-provisioning the device — in both
// contexts the engine's deterministic RNG draws land in the global
// total order, preserving serial-vs-sharded equivalence.
func (n *Network) provisionPlanes(es *EmuSwitch, spec *topology.Switch) error {
	cfg := n.cfg
	node := spec.ID

	edge := map[int]bool{}
	for p, peer := range spec.Ports {
		if peer.Kind == topology.PeerHost {
			edge[p] = true
		}
	}
	var balancer routing.Balancer = routing.ECMP{}
	if cfg.NewBalancer != nil {
		balancer = cfg.NewBalancer(node, n.eng.NewRand())
	}
	metrics := func(id dataplane.UnitID) core.Metric {
		if cfg.Metrics != nil {
			if m := cfg.Metrics(n, id); m != nil {
				return m
			}
		}
		return &counters.PacketCount{}
	}
	dp, err := dataplane.New(dataplane.Config{
		Node:          node,
		NumPorts:      len(spec.Ports),
		MaxID:         cfg.MaxID,
		WrapAround:    cfg.WrapAround,
		ChannelState:  cfg.ChannelState,
		NumCoS:        cfg.NumCoS,
		Metrics:       metrics,
		NotifCapacity: cfg.NotifCapacity,
		// Record synchronization windows at export time, while the
		// unit's unwrapped state still matches the notification. Only
		// progress-relevant notifications count: snapshot ID advances,
		// and last-seen advances on channels that gate completion
		// (structurally idle channels only ever advance via recovery
		// markers, long after the snapshot instant).
		OnNotify: func(notif dataplane.CPUNotification) {
			unit := es.DP.Unit(notif.Unit)
			if notif.SIDChanged() {
				n.recordSync(unit.CurrentSID(), notif.Exported, notif.Unit, -1)
			} else if notif.LastSeenChanged() && n.gateSets[notif.Unit][notif.Channel] {
				n.recordSync(unit.LastSeenUnwrapped(notif.Channel), notif.Exported, notif.Unit, notif.Channel)
			}
		},
		FIB:              n.fibs[node],
		Balancer:         balancer,
		EdgePorts:        edge,
		SnapshotDisabled: cfg.SnapshotDisabled[node],
		Telemetry:        n.dpTel,
		Journal:          cfg.Journal.For(int(node)),
	})
	if err != nil {
		return err
	}
	es.DP = dp

	baseGates := n.completionChannels(spec)
	recordingGates := func(id dataplane.UnitID) []int {
		chans := baseGates(id)
		set := make(map[int]bool, len(chans))
		for _, ch := range chans {
			set[ch] = true
		}
		n.gateSets[id] = set
		return chans
	}
	cp, err := control.New(control.Config{
		Switch:             dp,
		CompletionChannels: recordingGates,
		Telemetry:          n.cpTel,
		Journal:            cfg.Journal.For(int(node)),
		OnResult: func(res control.Result) {
			// The observer lives in its own domain: results cross the
			// network as switch-to-observer sends and land serialized in
			// that domain without touching the coordinator. The sampled
			// latency is floored at ObserverMinLatency, the declared
			// lookahead of every switch-shard-to-observer-shard pair.
			lat := sim.Duration(cfg.ObserverLatency.Sample(es.rng))
			if lat < cfg.ObserverMinLatency {
				lat = cfg.ObserverMinLatency
			}
			es.proc.Send(n.obsDom, lat, func() {
				n.obs.OnResult(res, n.obsProc.Now())
			})
		},
	})
	if err != nil {
		return err
	}
	es.CP = cp
	return nil
}

// completionChannels decides which upstream channels gate snapshot
// completion (channel-state variant), implementing the paper's
// Section 6 "removal of non-utilized upstream neighbors": switch-facing
// ingress units gate on their external channel; host-facing ingress
// units gate on nothing (hosts cannot carry markers); egress units gate
// on the internal channels some forwarding path actually uses (exact,
// from FIB path enumeration) plus their own port, which the initiation
// path refreshes every epoch.
func (n *Network) completionChannels(spec *topology.Switch) func(dataplane.UnitID) []int {
	numCoS := n.cfg.NumCoS
	return func(id dataplane.UnitID) []int {
		if id.Dir == dataplane.Ingress {
			if spec.Ports[id.Port].Kind == topology.PeerSwitch {
				chans := make([]int, numCoS)
				for c := range chans {
					chans[c] = c
				}
				return chans
			}
			return []int{}
		}
		used := n.utilized[spec.ID]
		var chans []int
		for p := range spec.Ports {
			if p != id.Port && !used[[2]int{p, id.Port}] {
				continue
			}
			for c := 0; c < numCoS; c++ {
				chans = append(chans, p*numCoS+c)
			}
		}
		sort.Ints(chans)
		return chans
	}
}

// Engine exposes the simulation engine for workload drivers and tests.
// Drivers run in the engine's global domain: callbacks they schedule
// directly on the engine are serialized with respect to every shard.
func (n *Network) Engine() sim.Sim { return n.eng }

// Proc returns a switch's scheduling handle. Events scheduled through
// it run in that switch's domain — on its shard, in deterministic
// order with the switch's own work. Use it for per-switch driver loops
// that must scale with shards (a driver on Engine() serializes), and
// as the clock source of metrics attached to the switch's units.
func (n *Network) Proc(node topology.NodeID) sim.Proc {
	dom, ok := n.doms[node]
	if !ok {
		panic(fmt.Sprintf("emunet: unknown switch %d", node))
	}
	return n.eng.Proc(dom)
}

// HostProc returns the scheduling handle of the switch a host hangs
// off — the domain an independent per-host traffic source should run
// in (see InjectFrom).
func (n *Network) HostProc(host topology.HostID) sim.Proc {
	h := n.topo.Host(host)
	if h == nil {
		panic(fmt.Sprintf("emunet: unknown host %d", host))
	}
	return n.sws[h.Node].proc
}

// Topo returns the network topology.
func (n *Network) Topo() *topology.Topology { return n.topo }

// Switch returns one emulated switch.
func (n *Network) Switch(node topology.NodeID) *EmuSwitch { return n.sws[node] }

// Unit returns a processing unit anywhere in the network.
func (n *Network) Unit(id dataplane.UnitID) *core.Unit {
	return n.sws[id.Node].DP.Unit(id)
}

// Gauge returns the queue-depth gauge registered for a unit, creating
// it on first use. Metric factories use this to wire egress queue depth
// into snapshots.
func (n *Network) Gauge(id dataplane.UnitID) *counters.Gauge {
	g, ok := n.gauges[id]
	if !ok {
		g = &counters.Gauge{}
		n.gauges[id] = g
	}
	return g
}

// Snapshots returns the global snapshots completed so far.
func (n *Network) Snapshots() []*observer.GlobalSnapshot { return n.sink.Snapshots() }

// CompletedEpochs returns how many global snapshots the observer has
// assembled. Safe from any goroutine; with Snapstore.Sealed it yields
// the store's ingestion lag for readiness probes.
func (n *Network) CompletedEpochs() uint64 { return n.sink.CompletedEpochs() }

// Sink returns the observer's completion path, which also builds the
// served endpoint set.
func (n *Network) Sink() *sink.Sink { return n.sink }

// Journal returns the flight-recorder set the network was built with,
// or nil when journaling is disabled.
func (n *Network) Journal() *journal.Set { return n.cfg.Journal }

// EpochTraces reconstructs per-epoch causal traces (wavefront, span
// tree, critical path) from the journal. Nil when journaling is
// disabled. Driver context only — the reconstruction reads the merged
// journal.
func (n *Network) EpochTraces() []*epochtrace.EpochTrace { return n.sink.EpochTraces() }

// BarrierProfile returns the sharded engine's cumulative per-shard
// work/wait split, or nil on a serial engine or when no Registry was
// configured. Driver context only.
func (n *Network) BarrierProfile() []sim.BarrierShardStats {
	if p, ok := n.eng.(*sim.Parallel); ok {
		return p.BarrierProfile()
	}
	return nil
}

// BlockedProfile returns the sharded engine's per-pair stall
// attribution in the epoch-trace rollup's wire form, most blocking
// waiter→holdup pair first. Nil on a serial engine or when no
// Registry was configured. Driver context only.
func (n *Network) BlockedProfile() []epochtrace.ShardBlocking {
	p, ok := n.eng.(*sim.Parallel)
	if !ok {
		return nil
	}
	prof := p.BlockedProfile()
	if len(prof) == 0 {
		return nil
	}
	out := make([]epochtrace.ShardBlocking, len(prof))
	for i, b := range prof {
		out[i] = epochtrace.ShardBlocking{Waiter: b.Waiter, Holdup: b.Holdup, WaitNs: b.WaitNs}
	}
	return out
}

// Audit replays the journal and verifies every snapshot's consistency
// invariants. Nil when journaling is disabled.
func (n *Network) Audit() *audit.Report { return n.sink.Audit() }

// Observer exposes the snapshot observer.
func (n *Network) Observer() *observer.Observer { return n.obs }

// Registry returns the telemetry registry the network was built with,
// or nil when telemetry is disabled.
func (n *Network) Registry() *telemetry.Registry { return n.cfg.Registry }

// Tracer returns the snapshot-lifecycle tracer, or nil when disabled.
func (n *Network) Tracer() *telemetry.Tracer { return n.cfg.Tracer }

// NotifDropsTotal sums dropped notifications across all switches.
func (n *Network) NotifDropsTotal() uint64 {
	var total uint64
	for _, es := range n.sws {
		total += es.DP.NotifDrops()
	}
	return total
}

// WireDrops returns packets lost to injected link loss.
func (n *Network) WireDrops() uint64 { return n.wireDrops.Load() }

// ChurnDrops returns packets eaten by fabric churn: arrivals at a down
// switch and transmissions onto a drained link.
func (n *Network) ChurnDrops() uint64 { return n.churnDrops.Load() }

// QueueDropsTotal sums packets dropped at full egress queues.
func (n *Network) QueueDropsTotal() uint64 {
	var total uint64
	for _, es := range n.sws {
		for p := range es.queues {
			total += es.queues[p].drops
		}
	}
	return total
}

// SyncSpread returns the synchronization of snapshot id: the difference
// between the earliest and latest data-plane notification timestamps
// carrying that ID (Section 8.1). The second result is false when no
// notifications for the ID were observed.
func (n *Network) SyncSpread(id packet.SeqID) (sim.Duration, bool) {
	n.syncMu.Lock()
	defer n.syncMu.Unlock()
	w, ok := n.syncs[id]
	if !ok || w.count == 0 {
		return 0, false
	}
	return w.max.Sub(w.min), true
}

// contributorLess is the deterministic tie-break for sync-window
// endpoints when two notifications carry the same timestamp: unit
// identity, then channel. Without it, which contributor "wins" a tied
// endpoint would depend on shard interleaving.
func contributorLess(a, b SyncContributor) bool {
	if a.Unit.Node != b.Unit.Node {
		return a.Unit.Node < b.Unit.Node
	}
	if a.Unit.Port != b.Unit.Port {
		return a.Unit.Port < b.Unit.Port
	}
	if a.Unit.Dir != b.Unit.Dir {
		return a.Unit.Dir < b.Unit.Dir
	}
	return a.Channel < b.Channel
}

// recordSync folds a notification timestamp into the snapshot's
// synchronization window. Called from switch domains on concurrent
// shards; everything it records is order-independent (min/max with
// deterministic tie-breaks, and a count).
func (n *Network) recordSync(id packet.SeqID, at sim.Time, unit dataplane.UnitID, channel int) {
	if debugSync != nil {
		debugSync(id, at, unit, channel)
	}
	if n.cfg.OnProgress != nil {
		n.cfg.OnProgress(id, at)
	}
	c := SyncContributor{Unit: unit, Channel: channel, At: at}
	n.syncMu.Lock()
	defer n.syncMu.Unlock()
	w, ok := n.syncs[id]
	if !ok {
		w = &syncWindow{min: at, max: at, first: c, last: c}
		n.syncs[id] = w
		w.count++
		return
	}
	if at < w.min || (at == w.min && contributorLess(c, w.first)) {
		w.min = at
		w.first = c
	}
	if at > w.max || (at == w.max && contributorLess(w.last, c)) {
		w.max = at
		w.last = c
	}
	w.count++
}

// debugSync, when non-nil, observes every sync record (tests only).
var debugSync func(id packet.SeqID, at sim.Time, unit dataplane.UnitID, channel int)

// SyncDetail returns the earliest and latest notifications contributing
// to a snapshot's synchronization window, for diagnosing stragglers.
func (n *Network) SyncDetail(id packet.SeqID) (first, last SyncContributor, ok bool) {
	n.syncMu.Lock()
	defer n.syncMu.Unlock()
	w, found := n.syncs[id]
	if !found || w.count == 0 {
		return SyncContributor{}, SyncContributor{}, false
	}
	return w.first, w.last, true
}

// serialization returns the transmission time of a packet on the link
// behind one of a switch's egress ports (per-link rates override the
// network default).
func (n *Network) serialization(es *EmuSwitch, port int, size uint32) sim.Duration {
	if size == 0 {
		size = 64
	}
	rate := n.cfg.LinkRateBps
	if peer := n.topo.Peer(es.Node, port); peer.RateBps > 0 {
		rate = peer.RateBps
	}
	return sim.DurationOfSeconds(float64(size) * 8 / rate)
}

// InjectFromHost delivers a packet from a host into its leaf switch at
// the current virtual time plus the host link latency. Call it from
// driver or global-domain context; per-host traffic sources that should
// scale with shards use InjectFrom with the host's own proc instead.
func (n *Network) InjectFromHost(host topology.HostID, pkt *packet.Packet) {
	n.InjectFrom(n.gproc, host, pkt)
}

// InjectFrom delivers a packet from a host into its leaf switch using
// the given scheduling handle. p must be either the global proc or the
// host's own switch proc (HostProc) — i.e. the domain the calling event
// runs in.
//
//speedlight:pool-transfer pkt
func (n *Network) InjectFrom(p sim.Proc, host topology.HostID, pkt *packet.Packet) {
	h := n.topo.Host(host)
	if h == nil {
		panic(fmt.Sprintf("emunet: unknown host %d", host))
	}
	pkt.SrcHost = uint32(host)
	n.tel.injected.Inc()
	if n.cfg.OnInject != nil {
		n.cfg.OnInject(pkt, host, p.Now())
	}
	es := n.sws[h.Node]
	p.SendCall(es.dom, sim.Duration(h.Latency), n.arriveFn, es, pkt, int64(h.Port))
}

// NewPacket returns a zeroed pool-owned packet for injection from
// driver or global-domain context. Ownership passes to the network at
// InjectFrom*; the packet is recycled at its terminal point (host
// delivery or any drop), so the caller — including OnInject/OnDeliver
// hooks — must not retain it past the hand-off. Packets built directly
// with &packet.Packet{...} remain outside the pool and are never
// recycled.
func (n *Network) NewPacket() *packet.Packet { return n.dpool.Get() }

// NewPacketFor is NewPacket for a per-host traffic source running in
// the host's own switch domain (InjectFrom with HostProc): the packet
// comes from that switch's pool, which the calling context owns.
func (n *Network) NewPacketFor(host topology.HostID) *packet.Packet {
	h := n.topo.Host(host)
	if h == nil {
		panic(fmt.Sprintf("emunet: unknown host %d", host))
	}
	return n.sws[h.Node].ppool.Get()
}

// arriveCall, txCall, deliverLocalCall, deliverGlobalCall and cpCall
// are the closure-free event callbacks behind the per-packet schedules
// (bound once into the *Fn fields at construction).
//
//speedlight:pool-transfer b
//speedlight:shard
func (n *Network) arriveCall(a, b any, i int64) {
	n.arrive(a.(*EmuSwitch), b.(*packet.Packet), int(i))
}

// arrive handles a packet arriving at a switch port from the wire.
// Runs in es's domain.
//
//speedlight:hotpath
//speedlight:pool-transfer pkt
func (n *Network) arrive(es *EmuSwitch, pkt *packet.Packet, port int) {
	if es.down || es.linkDown[port] {
		// The switch left the fabric (or the ingress link was drained)
		// while this packet was on the wire: the wire eats it. The Put
		// keeps teardown leak-free — every in-flight pooled packet
		// still reaches a pool.
		n.churnDrops.Add(1)
		es.ppool.Put(pkt)
		return
	}
	now := es.proc.Now()
	es.pkts.Inc()
	if topology.HostID(pkt.DstHost) == BroadcastHost {
		// Marker broadcast from a neighbor: refresh this port's external
		// channel, then die. Internal channels are refreshed by this
		// device's own CP-injected markers, so no re-flood is needed —
		// which also rules out flooding loops.
		es.DP.IngressOnly(pkt, port, now)
		es.ppool.Put(pkt)
		n.drainNotifs(es)
		return
	}
	res := es.DP.Ingress(pkt, port, now)
	n.drainNotifs(es)
	if res.Drop {
		es.ppool.Put(pkt)
		return
	}
	n.enqueue(es, pkt, res.EgressPort)
}

// enqueue places a packet into an egress queue, dropping at capacity,
// and starts the transmitter if idle.
//
//speedlight:hotpath
//speedlight:pool-transfer pkt
func (n *Network) enqueue(es *EmuSwitch, pkt *packet.Packet, port int) {
	q := es.queues[port]
	if q.length() >= n.cfg.QueueCapacity {
		q.drops++
		n.tel.queueDrops.Inc()
		es.ppool.Put(pkt)
		return
	}
	cos := int(pkt.CoS)
	if cos >= len(q.perCoS) {
		cos = len(q.perCoS) - 1
	}
	q.perCoS[cos].push(queuedPkt{pkt: pkt})
	n.tel.queueHighWater.SetMax(int64(q.length()))
	n.setDepthGauge(es, port)
	if !q.txScheduled {
		q.txScheduled = true
		n.scheduleTx(es, port)
	}
}

// scheduleTx arms the transmitter for the current head-of-line packet.
// The chosen class rides in the event (i = gen<<16 | port<<8 | cos):
// strict priority is decided when the transmitter is armed, and FIFO
// order within a class guarantees the class's head at fire time is the
// same packet that was priced here. The switch generation makes events
// armed before a churn teardown inert — after a down/up cycle the
// queues were flushed, so a stale pop would dequeue (or double-price)
// a packet the flush already recycled.
//
//speedlight:hotpath
func (n *Network) scheduleTx(es *EmuSwitch, port int) {
	q := es.queues[port]
	cos := q.head()
	if cos < 0 {
		q.txScheduled = false
		return
	}
	head := q.perCoS[cos].peek()
	es.proc.AfterCall(n.serialization(es, port, head.pkt.Size),
		n.txFn, es, nil, es.gen<<20|int64(port)<<8|int64(cos))
}

// txCall fires when the head-of-line packet finishes serializing: pop
// it, run egress, and re-arm for the next head. An event carrying a
// stale switch generation no-ops (see scheduleTx).
//
//speedlight:hotpath
//speedlight:shard
func (n *Network) txCall(a, _ any, i int64) {
	es := a.(*EmuSwitch)
	if i>>20 != es.gen {
		return
	}
	port, cos := int(i>>8)&0xfff, int(i&0xff)
	head := es.queues[port].perCoS[cos].pop()
	n.setDepthGauge(es, port)
	n.transmit(es, head.pkt, port)
	n.scheduleTx(es, port)
}

// transmit runs the egress unit and delivers the packet to the port's
// peer. Runs in es's domain; the wire hop to a neighboring switch is a
// cross-domain send whose latency is what the parallel engine's
// lookahead is derived from.
//
//speedlight:hotpath
//speedlight:pool-transfer pkt
func (n *Network) transmit(es *EmuSwitch, pkt *packet.Packet, port int) {
	now := es.proc.Now()
	isBroadcast := topology.HostID(pkt.DstHost) == BroadcastHost
	res := es.DP.Egress(pkt, port, now)
	n.drainNotifs(es)
	if res.Drop {
		es.ppool.Put(pkt)
		return
	}
	if isBroadcast {
		// Locally injected markers cross one wire hop to refresh the
		// neighbor's external channel; they are pointless toward hosts.
		// Like data, they are subject to injected wire loss — the next
		// recovery round resends them.
		peer := n.topo.Peer(es.Node, port)
		if peer.Kind != topology.PeerSwitch {
			es.ppool.Put(pkt)
			return
		}
		n.wireHop(es, pkt, port, peer)
		return
	}
	peer := n.topo.Peer(es.Node, port)
	switch peer.Kind {
	case topology.PeerSwitch:
		n.wireHop(es, pkt, port, peer)
	case topology.PeerHost:
		if res.StripHeader {
			pkt.HasSnap = false
			pkt.Snap = packet.SnapshotHeader{}
		}
		if n.cfg.OnDeliver != nil {
			// Serialize hook invocations (and their order) through the
			// global domain; the packet's pooled life ends in driver
			// context after the hook returns.
			es.proc.SendCall(sim.GlobalDomain, sim.Duration(peer.Latency),
				n.deliverGlobalFn, nil, pkt, int64(peer.Host))
		} else {
			es.proc.AfterCall(sim.Duration(peer.Latency),
				n.deliverLocalFn, es, pkt, 0)
		}
	default:
		// Egress onto an unwired port (PeerNone): the wire eats the
		// packet. Recycle it — before poolown, this path leaked the
		// pooled packet silently.
		es.ppool.Put(pkt)
	}
}

// deliverLocalCall is host delivery with no OnDeliver hook: count it
// and recycle the packet in the delivering switch's domain.
//
//speedlight:hotpath
//speedlight:pool-transfer b
//speedlight:shard
func (n *Network) deliverLocalCall(a, b any, _ int64) {
	n.tel.delivered.Inc()
	a.(*EmuSwitch).ppool.Put(b.(*packet.Packet))
}

// deliverGlobalCall is host delivery serialized through the global
// domain for the OnDeliver hook; the packet dies into the driver pool.
//
//speedlight:pool-transfer b
func (n *Network) deliverGlobalCall(_, b any, i int64) {
	pkt := b.(*packet.Packet)
	n.tel.delivered.Inc()
	n.cfg.OnDeliver(pkt, topology.HostID(uint32(i)), n.gproc.Now())
	n.dpool.Put(pkt)
}

// wireHop carries a packet across a switch-to-switch link, subject to
// injected loss. Runs in es's domain; arrival runs in the neighbor's.
//
//speedlight:hotpath
//speedlight:pool-transfer pkt
func (n *Network) wireHop(es *EmuSwitch, pkt *packet.Packet, port int, peer topology.Peer) {
	if es.linkDown[port] {
		// Administratively drained link: the wire is cut, so anything
		// the queue still pushes onto it is eaten deterministically
		// (no RNG draw — loss sampling stays aligned across engines).
		n.churnDrops.Add(1)
		es.ppool.Put(pkt)
		return
	}
	if n.cfg.LinkLossProb > 0 && es.rng.Float64() < n.cfg.LinkLossProb {
		n.wireDrops.Add(1)
		n.tel.wireDrops.Inc()
		es.ppool.Put(pkt)
		return
	}
	next := n.sws[peer.Node]
	es.proc.SendCall(next.dom, sim.Duration(peer.Latency),
		n.arriveFn, next, pkt, int64(peer.Port))
}

// setDepthGauge mirrors an egress queue's occupancy into the registered
// gauge, if any.
func (n *Network) setDepthGauge(es *EmuSwitch, port int) {
	id := dataplane.UnitID{Node: es.Node, Port: port, Dir: dataplane.Egress}
	if g, ok := n.gauges[id]; ok {
		g.Set(uint64(es.queues[port].length()))
	}
}

// drainNotifs moves data-plane notifications toward the switch CPU: if
// the control plane is idle, start its processing loop. The data
// plane's bounded queue is the socket buffer; the loop drains it one
// notification per service time, so a sustained notification rate above
// the service rate builds the queue up and eventually drops (Figure 10).
//
//speedlight:hotpath
func (n *Network) drainNotifs(es *EmuSwitch) {
	if es.cpBusy || es.DP.PendingNotifs() == 0 {
		return
	}
	es.cpBusy = true
	lat := sim.Duration(n.cfg.CPNotifLatency.Sample(es.rng))
	es.proc.AfterCall(lat, n.cpFn, es, nil, es.gen)
}

// cpCall dispatches the CP processing loop's closure-free events. The
// switch generation rides in i: a loop event armed before a churn
// teardown must not drive the rebooted control plane.
//
//speedlight:shard
func (n *Network) cpCall(a, _ any, i int64) {
	es := a.(*EmuSwitch)
	if i != es.gen {
		return
	}
	n.cpProcessOne(es)
}

// cpProcessOne handles one notification and reschedules itself while
// work remains.
func (n *Network) cpProcessOne(es *EmuSwitch) {
	notif, ok := es.DP.PopNotif()
	if !ok {
		es.cpBusy = false
		return
	}
	es.CP.HandleNotification(notif, es.proc.Now())
	svc := sim.Duration(es.cpService.Sample(es.rng))
	es.proc.AfterCall(svc, n.cpFn, es, nil, es.gen)
}

// ScheduleSnapshot asks the observer to start a snapshot at the given
// local-clock deadline on every control plane. Each control plane fires
// when its own clock reads the deadline — clock error plus scheduling
// jitter is exactly what the synchronization experiments measure.
func (n *Network) ScheduleSnapshot(localDeadline sim.Time) (packet.SeqID, error) {
	id, err := n.obs.Begin(n.eng.Now())
	if err != nil {
		return 0, err
	}
	for _, swSpec := range n.topo.Switches {
		if n.cfg.SnapshotDisabled[swSpec.ID] {
			continue
		}
		es := n.sws[swSpec.ID]
		if es.down {
			// Out of the fabric: unregistered from the observer, so the
			// snapshot neither initiates here nor waits for it.
			continue
		}
		trueAt := es.Clock.TrueAtLocal(localDeadline)
		if trueAt < n.eng.Now() {
			trueAt = n.eng.Now()
		}
		jitter := sim.Duration(n.cfg.InitiationLatency.Sample(es.rng))
		// The initiation runs in the switch's own domain.
		n.gproc.SendAt(es.dom, trueAt.Add(jitter), func() { n.initiate(es, id) })
	}
	return id, nil
}

// ScheduleSnapshotSingle is the single-initiator ablation: only the
// given switch's control plane initiates; every other device learns the
// new epoch from the snapshot IDs piggybacked on transit traffic, as in
// a classical single-initiator Chandy-Lamport run. Consistency is
// unaffected; what degrades is synchronization, which now includes the
// propagation time of the epoch through the network — the comparison
// that motivates the paper's multi-initiator design.
func (n *Network) ScheduleSnapshotSingle(node topology.NodeID, localDeadline sim.Time) (packet.SeqID, error) {
	id, err := n.obs.Begin(n.eng.Now())
	if err != nil {
		return 0, err
	}
	es, ok := n.sws[node]
	if !ok || n.cfg.SnapshotDisabled[node] || es.down {
		return 0, fmt.Errorf("emunet: switch %d cannot initiate", node)
	}
	trueAt := es.Clock.TrueAtLocal(localDeadline)
	if trueAt < n.eng.Now() {
		trueAt = n.eng.Now()
	}
	jitter := sim.Duration(n.cfg.InitiationLatency.Sample(es.rng))
	n.gproc.SendAt(es.dom, trueAt.Add(jitter), func() { n.initiate(es, id) })
	return id, nil
}

// initiate runs a control-plane snapshot initiation on one switch:
// every ingress unit processes the initiation message, which then
// follows the same egress queues as data traffic (FIFO order matters;
// Section 6). Runs in es's domain, or in the global domain during
// recovery (workers parked, so touching es is safe either way).
//
//speedlight:shard
func (n *Network) initiate(es *EmuSwitch, id packet.SeqID) {
	if es.down {
		// The switch left the fabric between scheduling and firing;
		// the observer's recovery machinery will exclude it (§6).
		return
	}
	inits := es.CP.Initiate(id, es.proc.Now())
	n.drainNotifs(es)
	for _, init := range inits {
		n.enqueue(es, init.Pkt, init.Port)
	}
}

// handleTimeouts drives the observer's retry/exclusion logic and relays
// recovery actions: re-initiation, a register poll to recover dropped
// notifications, and (in the channel-state variant) a marker broadcast
// to force ID propagation on idle channels.
//
//speedlight:global-only
func (n *Network) handleTimeouts() {
	now := n.gproc.Now()
	for _, act := range n.obs.CheckTimeouts(now) {
		if len(act.Retry) > 0 {
			// A single retry is routine §6 liveness (idle channels need
			// broadcast injection); a repeat means the snapshot is stuck.
			if n.retried[act.SnapshotID] {
				n.sink.Anomaly(fmt.Sprintf("snapshot %d stalled; retrying %d device(s)", act.SnapshotID, len(act.Retry)), act.SnapshotID)
			}
			n.retried[act.SnapshotID] = true
		}
		for _, node := range act.Retry {
			es := n.sws[node]
			if es.down {
				// Unreachable for re-initiation; the exclusion timer
				// keeps running and will eventually cut it out.
				continue
			}
			n.initiate(es, act.SnapshotID)
			es.CP.Poll(now)
			if n.cfg.ChannelState {
				n.injectMarkers(es)
			}
		}
	}
}

// injectMarkers injects one marker broadcast per ingress unit via the
// CPU pseudo-channel and floods it through the real egress queues: the
// FIFO queues guarantee any genuinely in-flight packets are seen first,
// so the marker's ID advance is truthful on every internal channel. Each
// egress copy then crosses one wire hop, refreshing the neighbors'
// external channels (Section 6 liveness).
func (n *Network) injectMarkers(es *EmuSwitch) {
	now := es.proc.Now()
	for port := 0; port < es.DP.NumPorts(); port++ {
		for cos := 0; cos < es.DP.NumCoS(); cos++ {
			m := &packet.Packet{DstHost: uint32(BroadcastHost), Size: 64, CoS: uint8(cos)}
			es.DP.IngressFromCP(m, port, now)
			n.drainNotifs(es)
			for e := 0; e < es.DP.NumPorts(); e++ {
				n.enqueue(es, m.Clone(), e)
			}
		}
	}
}

// RunFor advances the emulation.
func (n *Network) RunFor(d sim.Duration) { n.eng.RunFor(d) }

// SetDebugSync installs a test-only observer of sync records. The unit
// argument is passed as a fmt.Stringer to keep the hook signature loose.
func SetDebugSync(fn func(id packet.SeqID, at sim.Time, unit interface{ String() string }, channel int)) {
	if fn == nil {
		debugSync = nil
		return
	}
	debugSync = func(id packet.SeqID, at sim.Time, unit dataplane.UnitID, channel int) {
		fn(id, at, unit, channel)
	}
}
