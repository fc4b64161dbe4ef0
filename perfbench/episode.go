package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"speedlight"
	"speedlight/internal/audit"
	"speedlight/internal/dataplane"
	"speedlight/internal/emunet"
	"speedlight/internal/invariant"
	"speedlight/internal/journal"
	"speedlight/internal/observer"
	"speedlight/internal/sim"
	"speedlight/internal/snapstore"
	"speedlight/internal/telemetry"
	"speedlight/internal/topology"
)

// Virtual-time phases of an episode.
const (
	// warmupRun is the traffic run before the warm-up snapshot.
	warmupRun = sim.Millisecond
	// drainRun runs past the end of the schedule so every packet still
	// queued or on a wire reaches its host before the leak check.
	drainRun = 2 * sim.Millisecond
)

// burstQueries is how many back-to-back queries a workload without a
// store beside its campaign runs against the re-ingested one.
const burstQueries = 1000

// episodeOpts describes one episode: a fresh network built, warmed up,
// driven through the workload's snapshot campaign and checked.
type episodeOpts struct {
	w workload
	// variant names the input set; seed and scheds are its network seed
	// and traffic.
	variant int
	seed    int64
	scheds  []*schedule
	// shards selects the engine: 0 is the serial Engine, >= 2 the
	// sharded Parallel engine with that many shards.
	shards int
	// traced attaches a telemetry Registry and Tracer and records spans
	// into rec.
	traced bool
	rec    *recorder
	// timeInject times every InjectFrom call. The timer costs about half
	// as much as the call itself, so timed episodes are kept apart from
	// the traced/untraced pairs that measure tracing overhead.
	timeInject bool
	// tamper, when set, runs after the drain and before the checks;
	// tests use it to plant a defect the checks must catch.
	tamper func(*emunet.Network)
}

// episode is what one episode measured.
type episode struct {
	variant int
	setupS  float64 // network construction plus warm-up

	// The timed region: the snapshot campaign and the drain after it.
	// loopS is its round loop alone, without the drain.
	regionS   float64
	loopS     float64
	delivered uint64 // packets delivered to hosts inside the region
	events    uint64 // engine events fired inside the region
	runS      float64
	rounds    int
	snapMs    []float64

	snapsAttempted, snapsFailed int
	queries                     []query
	lagMax                      uint64

	analyzeS, auditS, tracesS, eventsS float64
	mallocs, gcs                       uint64

	// fp fingerprints the episode's observable outputs; exact holds its
	// deterministic counts. Both must repeat bit-for-bit.
	fp    string
	exact map[string]float64
	// layer holds values only a traced episode can read (registry
	// counters and engine profiles) plus the benchmark's own timings.
	layer map[string]float64
	notes []string
	// problems lists the episode's failed self-checks.
	problems []string

	// injectCalls and injectNs total the timed InjectFrom calls
	// (timeInject episodes only).
	injectCalls uint64
	injectNs    int64

	// totals are the engine's event count, the injected count and every
	// drop count, as fingerprinted.
	totals []uint64
	// Kept for the isolated layer replays.
	snaps []*observer.GlobalSnapshot
	syncs map[uint64]sim.Duration
	topo  *topology.Topology
}

// hostGen injects one host's schedule from the host's own scheduling
// domain: each event injects one packet and arms the next.
type hostGen struct {
	net   *emunet.Network
	proc  sim.Proc
	sched *schedule
	next  int
	timed bool

	injected uint64
	injectNs int64
}

func genCall(a, _ any, _ int64) {
	g := a.(*hostGen)
	s, k := g.sched, g.next
	pkt := g.net.NewPacketFor(s.host)
	pkt.DstHost = s.dst[k]
	pkt.SrcPort = s.sport[k]
	pkt.DstPort = 80
	pkt.Proto = 6
	pkt.Size = s.size[k]
	if g.timed {
		t := time.Now()
		g.net.InjectFrom(g.proc, s.host, pkt)
		g.injectNs += time.Since(t).Nanoseconds()
	} else {
		g.net.InjectFrom(g.proc, s.host, pkt)
	}
	g.injected++
	g.next++
	if g.next < len(s.at) {
		g.proc.ScheduleCall(s.at[g.next], genCall, g, nil, 0)
	}
}

func installGenerators(n *emunet.Network, scheds []*schedule, timed bool) []*hostGen {
	gens := make([]*hostGen, 0, len(scheds))
	for _, s := range scheds {
		g := &hostGen{net: n, proc: n.HostProc(s.host), sched: s, timed: timed}
		if len(s.at) > 0 {
			g.proc.ScheduleCall(s.at[0], genCall, g, nil, 0)
		}
		gens = append(gens, g)
	}
	return gens
}

// driver holds what the campaign loop needs between calls.
type driver struct {
	net  *speedlight.Network
	rec  *recorder
	gens []*hostGen
	ep   *episode
}

func (d *driver) injected() (n uint64) {
	for _, g := range d.gens {
		n += g.injected
	}
	return n
}

// drops counts packets that left the network other than by delivery.
func (d *driver) drops() uint64 {
	in := d.net.Inner()
	return in.QueueDropsTotal() + in.WireDrops() + in.ChurnDrops()
}

// deliveredSoFar is injected minus dropped minus still in flight.
func (d *driver) deliveredSoFar() uint64 {
	return d.injected() - d.drops() - uint64(d.net.Inner().PooledInFlight())
}

func (d *driver) runFor(dur sim.Duration, parent int) {
	t := time.Now()
	d.net.Run(time.Duration(dur))
	end := time.Now()
	d.ep.runS += end.Sub(t).Seconds()
	d.rec.record("RunFor", parent, t, end)
}

// snapshot takes one facade snapshot and returns its wall time in ms;
// a snapshot that errors, finalizes inconsistent or excludes a device
// counts as failed.
func (d *driver) snapshot(parent int) float64 {
	t := time.Now()
	snap, err := d.net.Snapshot()
	end := time.Now()
	d.rec.record("Snapshot", parent, t, end)
	d.ep.snapsAttempted++
	if err != nil || !snap.Consistent {
		d.ep.snapsFailed++
	} else if g := d.last(); g == nil || g.ID != snap.ID || len(g.Excluded) > 0 {
		d.ep.snapsFailed++
	}
	return float64(end.Sub(t).Nanoseconds()) / 1e6
}

func (d *driver) last() *observer.GlobalSnapshot {
	done := d.net.Inner().Snapshots()
	if len(done) == 0 {
		return nil
	}
	return done[len(done)-1]
}

// runEpisode builds a fresh network and runs one episode of o.w.
func runEpisode(o episodeOpts) (*episode, error) {
	w, rec := o.w, o.rec
	ep := &episode{variant: o.variant, exact: map[string]float64{}, layer: map[string]float64{}}
	root := rec.begin("episode", -1)
	defer rec.end(root)
	t0 := time.Now()

	setup := rec.begin("setup", root)
	cfg := speedlight.Config{
		Fabric:       speedlight.Fabric{Leaves: fabricLeaves, Spines: fabricSpines, HostsPerLeaf: fabricHostsPerLeaf},
		ChannelState: w.channelState,
		Seed:         o.seed,
		Shards:       o.shards,
	}
	var reg *telemetry.Registry
	if o.traced {
		reg = telemetry.NewRegistry()
		cfg.Registry = reg
		cfg.Tracer = telemetry.NewTracer(0)
	}
	if w.analysis {
		cfg.Journal = journal.NewSet(w.journalRing)
		cfg.Snapstore = snapstore.New(snapstore.Config{Registry: reg})
		cfg.Invariants = invariant.New(invariant.Config{Registry: reg})
	}
	sp := rec.begin("New", setup)
	net, err := speedlight.New(cfg)
	rec.end(sp)
	if err != nil {
		return nil, fmt.Errorf("building network: %w", err)
	}
	if w.analysis {
		registerUplinkInvariants(net, cfg.Invariants)
	}
	inner := net.Inner()
	eng := inner.Engine()
	d := &driver{net: net, rec: rec, gens: installGenerators(inner, o.scheds, o.timeInject), ep: ep}
	warm := rec.begin("warmup", setup)
	d.runFor(warmupRun, warm)
	d.snapshot(warm)
	if now := eng.Now(); now < sim.Time(w.warmup) {
		d.runFor(sim.Time(w.warmup).Sub(now), warm)
	}
	rec.end(warm)
	rec.end(setup)
	ep.setupS = time.Since(t0).Seconds()
	ep.runS = 0

	// The timed region.
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	fired0, delivered0 := eng.Fired(), d.deliveredSoFar()
	camp := rec.begin("campaign", root)
	var (
		stop    atomic.Bool
		wg      sync.WaitGroup
		rd      *reader
		queries []query
	)
	if w.analysis {
		rd = &reader{store: cfg.Snapstore, completed: inner.CompletedEpochs, rate: w.queryRate, rec: rec, parent: camp}
		wg.Add(1)
		go func() {
			defer wg.Done()
			queries = rd.run(&stop)
		}()
	}
	tr := time.Now()
	end := sim.Time(w.horizon)
	pendingMax := 0
	// A round starts only if the longest round so far still fits before
	// the schedule ends, so every timed snapshot runs beside traffic.
	var longest sim.Duration
	for eng.Now().Add(max(longest, w.gap)) < end {
		r0 := eng.Now()
		round := rec.begin("round", camp)
		if w.gap > 0 {
			d.runFor(w.gap, round)
		}
		ep.snapMs = append(ep.snapMs, d.snapshot(round))
		pendingMax = max(pendingMax, eng.Pending())
		rec.end(round)
		longest = max(longest, eng.Now().Sub(r0))
	}
	ep.loopS = time.Since(tr).Seconds()
	d.runFor(end.Sub(eng.Now())+drainRun, camp)
	ep.regionS = time.Since(tr).Seconds()
	stop.Store(true)
	wg.Wait()
	rec.end(camp)
	runtime.ReadMemStats(&ms1)
	ep.rounds = len(ep.snapMs)
	ep.events = eng.Fired() - fired0
	ep.delivered = d.deliveredSoFar() - delivered0
	ep.mallocs = ms1.Mallocs - ms0.Mallocs
	ep.gcs = uint64(ms1.NumGC - ms0.NumGC)
	if o.tamper != nil {
		o.tamper(inner)
	}
	if err := inner.LeakCheck(); err != nil {
		ep.problems = append(ep.problems, fmt.Sprintf("after the drain: %v", err))
	}

	// The analysis plane: replay audit and epoch traces over the journal
	// (both return nil without one), then the snapstore reads. Each call
	// starts from a collected heap, so the memory peak it reaches does
	// not depend on when the previous phase's garbage happened to be
	// collected.
	an := rec.begin("analyze", root)
	runtime.GC()
	ta := time.Now()
	sp = rec.begin("Audit", an)
	rep := net.Audit()
	rec.end(sp)
	ep.auditS = time.Since(ta).Seconds()
	runtime.GC()
	tb := time.Now()
	sp = rec.begin("EpochTraces", an)
	traces := net.EpochTraces()
	rec.end(sp)
	ep.tracesS = time.Since(tb).Seconds()
	ep.analyzeS = ep.auditS + ep.tracesS
	rec.end(an)
	set := net.Journal()
	ep.exact["journal.appended"] = float64(set.Appended())
	ep.exact["journal.overwritten"] = float64(set.Overwritten())
	if o.traced {
		// Fetching the merged journal is the analysis plane's first
		// step, timed on its own here (Audit and EpochTraces each fetch
		// it again); without a journal there is nothing to fetch.
		te := time.Now()
		sp = rec.begin("Events", root)
		evs := set.Events()
		rec.end(sp)
		ep.eventsS = time.Since(te).Seconds()
		ep.exact["journal.events"] = float64(len(evs))
	}

	snaps := inner.Snapshots()
	ep.syncs = make(map[uint64]sim.Duration, len(snaps))
	for _, g := range snaps {
		s, _ := inner.SyncSpread(g.ID)
		ep.syncs[uint64(g.ID)] = s
	}
	store := cfg.Snapstore
	if w.analysis {
		ep.lagMax = rd.lagMax
	} else {
		// No store beside the campaign: query a fresh one built from
		// its snapshots.
		store = reingest(snaps, ep.syncs)
		qp := rec.begin("queries", root)
		queries = queryBurst(store, burstQueries, rec, qp)
		rec.end(qp)
	}
	ep.queries = queries

	if err := checkQueries(queries, snaps, store.View().Units()); err != nil {
		ep.problems = append(ep.problems, err.Error())
	}
	if err := checkAnalysis(rep, cfg.Invariants); err != nil {
		ep.problems = append(ep.problems, err.Error())
	}
	ep.snaps = snaps
	ep.topo = inner.Topo()
	ep.totals = []uint64{eng.Fired(), d.injected(), inner.QueueDropsTotal(), inner.WireDrops(), inner.ChurnDrops(), inner.NotifDropsTotal()}
	ep.fp = fingerprint(snaps, ep.syncs, ep.totals)
	collectExact(ep, d, rep, traces)
	ep.layer["sim.pending_max"] = float64(pendingMax)
	for _, g := range d.gens {
		ep.injectCalls += g.injected
		ep.injectNs += g.injectNs
	}
	if o.traced {
		if err := collectTraced(ep, d, reg); err != nil {
			ep.problems = append(ep.problems, err.Error())
		}
	}
	return ep, nil
}

// registerUplinkInvariants watches each leaf's uplink egress counters
// for regressions, as the command-line tool does for counting metrics.
func registerUplinkInvariants(net *speedlight.Network, eng *invariant.Engine) {
	for leaf := 0; leaf < fabricLeaves; leaf++ {
		var ups []dataplane.UnitID
		for _, lp := range net.Uplinks(leaf) {
			ups = append(ups, dataplane.UnitID{Node: topology.NodeID(lp[0]), Port: lp[1], Dir: dataplane.Egress})
		}
		eng.Register(invariant.Monotone(fmt.Sprintf("leaf%d-uplinks-monotone", leaf), ups))
	}
}

// checkAnalysis fails the episode on an inconsistent audit verdict, an
// auditor/observer disagreement, or any invariant violation.
func checkAnalysis(rep *audit.Report, inv *invariant.Engine) error {
	if rep != nil {
		if _, inconsistent, _ := rep.Counts(); inconsistent > 0 {
			return fmt.Errorf("audit: %d inconsistent verdicts", inconsistent)
		}
		if rep.Disagreements > 0 {
			return fmt.Errorf("audit: %d disagreements with the observer", rep.Disagreements)
		}
	}
	if inv != nil {
		for _, s := range inv.Status() {
			if s.Violations > 0 {
				return fmt.Errorf("invariant %s: %d violations (%s)", s.Name, s.Violations, s.Detail)
			}
		}
	}
	return nil
}

// fingerprint hashes what the episode produced: every snapshot's ID,
// consistency, exclusions, virtual schedule and completion times, sync
// spread and per-unit values, plus the totals (event, injected and
// drop counts).
func fingerprint(snaps []*observer.GlobalSnapshot, syncs map[uint64]sim.Duration, totals []uint64) string {
	h := sha256.New()
	put := func(vs ...uint64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
	}
	sorted := append([]*observer.GlobalSnapshot(nil), snaps...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	for _, g := range sorted {
		put(uint64(g.ID), b2u(g.Consistent), uint64(len(g.Excluded)),
			uint64(g.ScheduledAt), uint64(g.CompletedAt), uint64(syncs[uint64(g.ID)]))
		for _, x := range g.Excluded {
			put(uint64(x))
		}
		units := make([]dataplane.UnitID, 0, len(g.Results))
		for u := range g.Results {
			units = append(units, u)
		}
		sort.Slice(units, func(i, j int) bool { return unitLess(units[i], units[j]) })
		for _, u := range units {
			r := g.Results[u]
			put(uint64(u.Node), uint64(u.Port), uint64(u.Dir), r.Value, b2u(r.Consistent))
		}
	}
	put(totals...)
	return hex.EncodeToString(h.Sum(nil)[:8])
}

func unitLess(a, b dataplane.UnitID) bool {
	if a.Node != b.Node {
		return a.Node < b.Node
	}
	if a.Port != b.Port {
		return a.Port < b.Port
	}
	return a.Dir < b.Dir
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
