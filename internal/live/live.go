// Package live runs a Speedlight deployment as real concurrent Go:
// every switch is a goroutine owning its data plane and control plane,
// links are messages between switch goroutines, and the snapshot
// observer runs in its own goroutine with wall-clock initiation timers.
//
// Messages travel over one of two transports: bounded in-process
// channels (the default), or datagrams over loopback UDP sockets, which
// puts the kernel and the binary codec in the loop. The runtime above
// the transport is the same either way.
//
// The protocol logic is exactly the same state-machine code the
// discrete-event simulation drives (internal/core, internal/control,
// internal/observer), and completed snapshots take the same completion
// path (internal/sink); this runtime demonstrates it under genuine
// asynchrony — goroutine scheduling, real queueing, and wall-clock
// time — the way a deployment across real switch CPUs would run it.
// Experiments use the simulator for reproducibility.
package live

import (
	"fmt"
	"os"
	"sync"
	"time"

	"speedlight/internal/audit"
	"speedlight/internal/control"
	"speedlight/internal/core"
	"speedlight/internal/counters"
	"speedlight/internal/dataplane"
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

// Config parameterizes a live network.
type Config struct {
	// Topo is the network topology. Required.
	Topo *topology.Topology

	// Snapshot protocol parameters (defaults: 256, wraparound on,
	// channel state off).
	MaxID        uint32
	WrapAround   bool
	ChannelState bool

	// Metrics builds each unit's snapshot target; nil defaults to
	// packet counters.
	Metrics func(id dataplane.UnitID) core.Metric

	// UDP carries every message as a datagram over loopback UDP
	// sockets instead of in-process channels: each switch and the
	// observer bind a data socket and a control socket.
	UDP bool

	// OnDeliver observes packets reaching hosts. Called from switch
	// goroutines; must be safe for concurrent use.
	OnDeliver func(pkt *packet.Packet, host topology.HostID)

	// RetryEvery re-initiates incomplete snapshots (liveness). Default
	// 20ms; negative disables.
	RetryEvery time.Duration

	// Registry, when set, enables telemetry across every layer of the
	// deployment. Nil disables instrumentation at zero hot-path cost.
	Registry *telemetry.Registry
	// Tracer, when set, records snapshot-lifecycle spans on the
	// observer goroutine.
	Tracer *telemetry.Tracer
	// MetricsAddr, when non-empty, serves the observability endpoints
	// (see sink.Sink.MuxConfig) on this address from Start until Stop.
	// A Registry (and Tracer) is created automatically if none was
	// provided.
	MetricsAddr string

	// Journal, when set, records every protocol event into per-switch
	// flight-recorder rings (internal/journal). The rings are lock-free
	// and safe for the concurrent switch goroutines. Nil disables
	// journaling at zero hot-path cost.
	Journal *journal.Set
	// OnAnomaly receives a flight-recorder dump whenever a snapshot
	// finalizes inconsistent or with excluded devices, or an invariant
	// fails. Called from the observer goroutine with the observer
	// locked; must not block or call back into the network.
	OnAnomaly func(reason string, snapshotID packet.SeqID, dump []journal.Event)

	// Snapstore, when set, ingests every completed global snapshot as a
	// sealed delta-encoded epoch (internal/snapstore), on the observer
	// goroutine.
	Snapstore *snapstore.Store
	// Invariants, when set, streams every epoch sealed into Snapstore
	// through the registered invariants (internal/invariant); each
	// violation fires OnAnomaly. Requires Snapstore.
	Invariants *invariant.Engine
}

// liveSwitch is one switch goroutine's state.
type liveSwitch struct {
	node topology.NodeID
	dp   *dataplane.Switch
	cp   *control.Plane
	// events counts this switch goroutine's processed messages
	// (per-switch throughput).
	events *telemetry.Counter
}

// Network is a live deployment. Endpoint i of its transport is switch
// topology.NodeID(i); the observer is the last endpoint.
type Network struct {
	cfg   Config
	topo  *topology.Topology
	sws   []*liveSwitch
	tr    transport
	obsEP int

	// obsMu serializes the observer: results from its goroutine,
	// timeouts from the retry ticker, and Begin from TakeSnapshot. It
	// also orders Stop against TakeSnapshot.
	obsMu sync.Mutex
	obs   *observer.Observer
	sink  *sink.Sink

	started time.Time
	wg      sync.WaitGroup
	stop    chan struct{}
	stopped sync.Once

	tel    liveTelemetry
	metSrv *telemetry.Server
}

// liveTelemetry is the runtime's own metric set: the queueing and
// scheduling effects only the goroutine harness can see.
type liveTelemetry struct {
	drops     *telemetry.Counter
	events    *telemetry.Counter
	delivered *telemetry.Counter
}

func newLiveTelemetry(reg *telemetry.Registry) liveTelemetry {
	return liveTelemetry{
		drops:     reg.Counter("speedlight_live_inbox_drops_total", "messages dropped by the transport (full inbox or send error)"),
		events:    reg.Counter("speedlight_live_events_total", "events processed by switch goroutines"),
		delivered: reg.Counter("speedlight_live_packets_delivered_total", "packets delivered to hosts"),
	}
}

// New builds a live network, binding its sockets when UDP is set. Call
// Start to launch its goroutines and Stop to release them.
func New(cfg Config) (*Network, error) {
	if cfg.Topo == nil {
		return nil, fmt.Errorf("live: nil topology")
	}
	if cfg.MaxID == 0 {
		cfg.MaxID = 256
	}
	if cfg.RetryEvery == 0 {
		cfg.RetryEvery = 20 * time.Millisecond
	}
	if cfg.MetricsAddr != "" && cfg.Registry == nil {
		cfg.Registry = telemetry.NewRegistry()
	}
	if cfg.MetricsAddr != "" && cfg.Tracer == nil {
		cfg.Tracer = telemetry.NewTracer(0)
	}
	fibs, err := routing.ComputeFIBs(cfg.Topo)
	if err != nil {
		return nil, err
	}

	n := &Network{
		cfg:     cfg,
		topo:    cfg.Topo,
		obsEP:   len(cfg.Topo.Switches),
		started: time.Now(),
		stop:    make(chan struct{}),
		tel:     newLiveTelemetry(cfg.Registry),
	}
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
		MaxID:      cfg.MaxID,
		WrapAround: cfg.WrapAround,
		RetryAfter: durToSim(cfg.RetryEvery),
		Telemetry:  observer.NewTelemetry(cfg.Registry),
		Tracer:     cfg.Tracer,
		Journal:    cfg.Journal.Observer(),
		OnComplete: func(g *observer.GlobalSnapshot) { n.sink.Complete(g, 0) },
	})
	if err != nil {
		return nil, err
	}
	n.obs = obs

	metrics := cfg.Metrics
	if metrics == nil {
		metrics = func(dataplane.UnitID) core.Metric { return &counters.PacketCount{} }
	}
	dpTel := dataplane.NewTelemetry(cfg.Registry)
	cpTel := control.NewTelemetry(cfg.Registry)
	swEvents := cfg.Registry.CounterVec("speedlight_live_switch_events_total",
		"events processed per switch goroutine", "switch")
	for _, spec := range cfg.Topo.Switches {
		edge := map[int]bool{}
		for p, peer := range spec.Ports {
			if peer.Kind == topology.PeerHost {
				edge[p] = true
			}
		}
		dp, err := dataplane.New(dataplane.Config{
			Node:         spec.ID,
			NumPorts:     len(spec.Ports),
			MaxID:        cfg.MaxID,
			WrapAround:   cfg.WrapAround,
			ChannelState: cfg.ChannelState,
			Metrics:      metrics,
			FIB:          fibs[spec.ID],
			Balancer:     routing.ECMP{},
			EdgePorts:    edge,
			Telemetry:    dpTel,
			Journal:      cfg.Journal.For(int(spec.ID)),
		})
		if err != nil {
			return nil, err
		}
		cp, err := control.New(control.Config{
			Switch:    dp,
			Telemetry: cpTel,
			Journal:   cfg.Journal.For(int(spec.ID)),
			OnResult: func(res control.Result) {
				// Ship to the observer — the network path from switch
				// CPU to observer host.
				n.send(n.obsEP, msg{kind: msgResult, res: res}, true)
			},
		})
		if err != nil {
			return nil, err
		}
		n.sws = append(n.sws, &liveSwitch{
			node:   spec.ID,
			dp:     dp,
			cp:     cp,
			events: swEvents.With(fmt.Sprint(spec.ID)),
		})
		obs.Register(spec.ID, dp.UnitIDs())
	}

	endpoints := len(n.sws) + 1
	if cfg.UDP {
		if n.tr, err = listenUDP(endpoints, cfg.Registry); err != nil {
			return nil, err
		}
	} else {
		n.tr = newChanTransport(endpoints, cfg.Registry)
	}
	return n, nil
}

func durToSim(d time.Duration) sim.Duration {
	if d < 0 {
		return 0
	}
	return sim.Duration(d.Nanoseconds())
}

// now returns wall time since New as protocol time.
func (n *Network) now() sim.Time {
	return sim.Time(time.Since(n.started).Nanoseconds())
}

// send hands m to an endpoint, counting what the transport drops.
func (n *Network) send(to int, m msg, wait bool) error {
	err := n.tr.send(to, m, wait)
	if err != nil {
		n.tel.drops.Inc()
	}
	return err
}

// Start launches the switch and observer goroutines, the retry ticker,
// and the observability HTTP server when MetricsAddr is configured. A
// metrics server that fails to bind is reported on stderr but does not
// stop the network.
func (n *Network) Start() {
	if n.cfg.MetricsAddr != "" {
		srv, err := telemetry.ServeConfig(n.cfg.MetricsAddr,
			n.sink.MuxConfig(n.cfg.Registry, n.cfg.Tracer, nil))
		if err != nil {
			fmt.Fprintf(os.Stderr, "live: metrics server: %v\n", err)
		} else {
			n.metSrv = srv
		}
	}
	for _, ls := range n.sws {
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.runSwitch(ls)
		}()
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		n.runObserver()
	}()
	if n.cfg.RetryEvery > 0 {
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.runRetries()
		}()
	}
	n.sink.Health().SetReady(true)
}

// Stop terminates all goroutines, the transport and the metrics
// server. It is idempotent.
func (n *Network) Stop() {
	n.sink.Health().SetReady(false)
	n.obsMu.Lock()
	n.stopped.Do(func() { close(n.stop) })
	n.obsMu.Unlock()
	n.tr.close()
	n.wg.Wait()
	if n.metSrv != nil {
		_ = n.metSrv.Close()
		n.metSrv = nil
	}
}

// isStopped reports whether Stop has begun.
func (n *Network) isStopped() bool {
	select {
	case <-n.stop:
		return true
	default:
		return false
	}
}

// Registry returns the telemetry registry, or nil when disabled.
func (n *Network) Registry() *telemetry.Registry { return n.cfg.Registry }

// Health returns the runtime's health state: ready between Start and
// Stop, and failing while the snapshot store lags the observer. It
// backs the /healthz and /readyz probes.
func (n *Network) Health() *telemetry.Health { return n.sink.Health() }

// Sink returns the observer's completion path, which also builds the
// served endpoint set.
func (n *Network) Sink() *sink.Sink { return n.sink }

// Audit replays the journal and verifies every snapshot's consistency
// invariants. Safe to call while the network is running. Nil when
// journaling is disabled.
func (n *Network) Audit() *audit.Report { return n.sink.Audit() }

// Tracer returns the snapshot-lifecycle tracer, or nil when disabled.
func (n *Network) Tracer() *telemetry.Tracer { return n.cfg.Tracer }

// MetricsAddr returns the bound observability address, or "" when no
// metrics server is running (useful with a ":0" MetricsAddr).
func (n *Network) MetricsAddr() string {
	if n.metSrv == nil {
		return ""
	}
	return n.metSrv.Addr()
}

// runSwitch is one switch's event loop: the single goroutine that owns
// both the data plane and the control plane state of the device, so
// every unit stays linearizable.
func (n *Network) runSwitch(ls *liveSwitch) {
	ep := int(ls.node)
	for {
		m, ok := n.tr.recv(ep)
		if !ok {
			return
		}
		ls.events.Inc()
		n.tel.events.Inc()
		switch m.kind {
		case msgData:
			if m.port >= ls.dp.NumPorts() {
				continue // a malformed datagram names no real port
			}
			n.handlePacket(ls, m.pkt, m.port)
		case msgInitiate, msgRetry:
			for _, init := range ls.cp.Initiate(m.id, n.now()) {
				// The initiation continues through the egress unit
				// of the same port, in order with data traffic
				// (this goroutine is the FIFO).
				n.handleEgress(ls, init.Pkt, init.Port)
			}
			n.drainNotifs(ls)
			if m.kind == msgRetry {
				if n.cfg.ChannelState {
					n.injectMarkers(ls)
				}
				ls.cp.Poll(n.now())
			}
		}
	}
}

// handlePacket runs a packet through ingress, forwarding and egress.
func (n *Network) handlePacket(ls *liveSwitch, pkt *packet.Packet, port int) {
	res := ls.dp.Ingress(pkt, port, n.now())
	n.drainNotifs(ls)
	if res.Drop {
		return
	}
	n.handleEgress(ls, pkt, res.EgressPort)
}

// handleEgress runs egress processing and delivers to the peer.
func (n *Network) handleEgress(ls *liveSwitch, pkt *packet.Packet, port int) {
	res := ls.dp.Egress(pkt, port, n.now())
	n.drainNotifs(ls)
	if res.Drop {
		return
	}
	peer := n.topo.Peer(ls.node, port)
	switch peer.Kind {
	case topology.PeerSwitch:
		// Non-blocking: a full inbox is a full link buffer, and the
		// packet is dropped — blocking here could deadlock a cycle of
		// mutually full switches.
		n.send(int(peer.Node), msg{kind: msgData, pkt: pkt, port: peer.Port}, false)
	case topology.PeerHost:
		if res.StripHeader {
			pkt.HasSnap = false
			pkt.Snap = packet.SnapshotHeader{}
		}
		n.tel.delivered.Inc()
		if n.cfg.OnDeliver != nil {
			n.cfg.OnDeliver(pkt, peer.Host)
		}
	}
}

// injectMarkers floods one marker broadcast per (ingress port, class)
// through the switch and one link hop outward, refreshing every FIFO
// channel's snapshot ID (Section 6 liveness). The switch goroutine is
// the FIFO, so ordering is inherently preserved.
func (n *Network) injectMarkers(ls *liveSwitch) {
	for port := 0; port < ls.dp.NumPorts(); port++ {
		for cos := 0; cos < ls.dp.NumCoS(); cos++ {
			m := &packet.Packet{DstHost: uint32(broadcastHost), Size: 64, CoS: uint8(cos)}
			ls.dp.IngressFromCP(m, port, n.now())
			n.drainNotifs(ls)
			for e := 0; e < ls.dp.NumPorts(); e++ {
				n.handleEgress(ls, m.Clone(), e)
			}
		}
	}
}

// broadcastHost marks marker broadcasts; they die after one link hop's
// ingress processing (the FIB has no route for them).
const broadcastHost = topology.HostID(0xFFFFFFFF)

// drainNotifs feeds pending data-plane notifications to the local
// control plane. Data and control plane share the switch goroutine, as
// they share the switch in hardware.
func (n *Network) drainNotifs(ls *liveSwitch) {
	for {
		notif, ok := ls.dp.PopNotif()
		if !ok {
			return
		}
		ls.cp.HandleNotification(notif, n.now())
	}
}

// runObserver is the observer host's receive loop.
func (n *Network) runObserver() {
	for {
		m, ok := n.tr.recv(n.obsEP)
		if !ok {
			return
		}
		if m.kind != msgResult {
			continue
		}
		n.obsMu.Lock()
		n.obs.OnResult(m.res, n.now())
		n.obsMu.Unlock()
	}
}

// runRetries drives the observer's recovery loop until Stop.
func (n *Network) runRetries() {
	t := time.NewTicker(n.cfg.RetryEvery)
	defer t.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
		}
		n.obsMu.Lock()
		acts := n.obs.CheckTimeouts(n.now())
		n.obsMu.Unlock()
		for _, act := range acts {
			for _, node := range act.Retry {
				// Non-blocking: if the switch is saturated, the next
				// tick retries again. Blocking here could deadlock
				// against a switch blocked on the observer.
				n.send(int(node), msg{kind: msgRetry, id: act.SnapshotID}, false)
			}
		}
	}
}

// Inject sends a packet from a host into its edge switch.
func (n *Network) Inject(host topology.HostID, pkt *packet.Packet) error {
	h := n.topo.Host(host)
	if h == nil {
		return fmt.Errorf("live: unknown host %d", host)
	}
	if n.isStopped() {
		return errStopped
	}
	pkt.SrcHost = uint32(host)
	return n.send(int(h.Node), msg{kind: msgData, pkt: pkt, port: h.Port}, true)
}

// TakeSnapshot begins a network-wide snapshot after the given delay and
// returns its ID and a channel that yields the assembled global
// snapshot once complete.
func (n *Network) TakeSnapshot(delay time.Duration) (packet.SeqID, <-chan *observer.GlobalSnapshot, error) {
	n.obsMu.Lock()
	if n.isStopped() {
		n.obsMu.Unlock()
		return 0, nil, errStopped
	}
	id, err := n.obs.Begin(n.now())
	if err != nil {
		n.obsMu.Unlock()
		return 0, nil, err
	}
	sub := n.sink.Subscribe(id)
	n.obsMu.Unlock()

	time.AfterFunc(delay, func() {
		for _, ls := range n.sws {
			n.send(int(ls.node), msg{kind: msgInitiate, id: id}, true)
		}
	})
	return id, sub, nil
}

// Snapshots returns the snapshots completed so far.
func (n *Network) Snapshots() []*observer.GlobalSnapshot { return n.sink.Snapshots() }
