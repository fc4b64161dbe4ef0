// Package sink is the snapshot observer's completion path, shared by
// every runtime (the discrete-event emulation in internal/emunet and
// the goroutine runtime in internal/live): what happens to a global
// snapshot once the observer has assembled it, and the diagnostic
// surface served over it.
//
// A Sink stamps the deployment parameters into the journal, keeps the
// completed-snapshot list and per-snapshot subscribers, dumps the
// flight-recorder tail on inconsistent or excluded finalization, seals
// each snapshot into the snapshot-history store, streams it through
// the invariant engine, and builds the served endpoint set with the
// store-lag readiness check. The runtimes differ only in how results
// reach the observer; everything after is here, once.
package sink

import (
	"fmt"
	"sync"
	"sync/atomic"

	"speedlight/internal/audit"
	"speedlight/internal/epochtrace"
	"speedlight/internal/invariant"
	"speedlight/internal/journal"
	"speedlight/internal/observer"
	"speedlight/internal/packet"
	"speedlight/internal/sim"
	"speedlight/internal/snapstore"
	"speedlight/internal/telemetry"
)

// FlightRecorderSize is how many trailing journal events an anomaly
// dump carries.
const FlightRecorderSize = 512

// SnapstoreLagMax is the readiness threshold: /readyz fails once the
// store's sealed epochs trail the observer's completed snapshots by
// more than this many.
const SnapstoreLagMax = 8

// Config is the part of a runtime's configuration the completion path
// reads. Every field mirrors the runtime config field of the same name.
type Config struct {
	MaxID        uint32
	WrapAround   bool
	ChannelState bool
	Journal      *journal.Set
	OnAnomaly    func(reason string, snapshotID packet.SeqID, dump []journal.Event)
	Snapstore    *snapstore.Store
	Invariants   *invariant.Engine
}

// Sink receives completed global snapshots from one observer.
// Complete and Anomaly run in the observer's execution context (its
// goroutine or its simulation domain); every other method is safe from
// any goroutine.
type Sink struct {
	cfg    Config
	health *telemetry.Health

	// completed counts assembled global snapshots (atomic: readiness
	// probes read it beside the observer).
	completed atomic.Uint64

	// mu guards done and subs. It is never held across OnAnomaly or a
	// subscriber send.
	mu   sync.Mutex
	done []*observer.GlobalSnapshot
	subs map[packet.SeqID]chan *observer.GlobalSnapshot
}

// New builds a sink and stamps the deployment parameters into the
// journal, so offline audits (doctor) recover them without
// side-channel configuration.
func New(cfg Config) *Sink {
	s := &Sink{
		cfg:    cfg,
		health: telemetry.NewHealth(),
		subs:   make(map[packet.SeqID]chan *observer.GlobalSnapshot),
	}
	if cfg.Journal != nil {
		cfg.Journal.Observer().Append(journal.Config(uint64(cfg.MaxID), cfg.WrapAround, cfg.ChannelState))
	}
	if cfg.Snapstore != nil {
		s.health.AddCheck("snapstore-lag",
			snapstore.HealthCheck(cfg.Snapstore, s.CompletedEpochs, SnapstoreLagMax))
	}
	return s
}

// Complete records one assembled global snapshot: anomaly dumps for an
// inconsistent or partial cut, store ingest (with spread, the cut's
// measured synchronization spread, or zero when unknown), invariant
// evaluation, the done list, and the snapshot's subscriber.
//
//speedlight:shard
func (s *Sink) Complete(g *observer.GlobalSnapshot, spread sim.Duration) {
	s.completed.Add(1)
	if !g.Consistent {
		s.Anomaly(fmt.Sprintf("snapshot %d finalized inconsistent", g.ID), g.ID)
	} else if len(g.Excluded) > 0 {
		s.Anomaly(fmt.Sprintf("snapshot %d finalized with %d device(s) excluded", g.ID, len(g.Excluded)), g.ID)
	}
	if st := s.cfg.Snapstore; st != nil {
		ep := st.Ingest(g, spread)
		st.RecordLag(s.completed.Load())
		if eng := s.cfg.Invariants; eng != nil {
			for _, viol := range eng.Eval(st.View(), ep) {
				s.Anomaly(viol.String(), g.ID)
			}
		}
	}
	s.mu.Lock()
	s.done = append(s.done, g)
	sub := s.subs[g.ID]
	delete(s.subs, g.ID)
	s.mu.Unlock()
	if sub != nil {
		sub <- g
		close(sub)
	}
}

// Anomaly hands the flight-recorder tail to the OnAnomaly hook. The
// tail is built from per-slot atomic reads and merged
// deterministically, so reading it beside concurrently appending
// switches is safe; entries mid-publication elsewhere may simply miss
// the dump, which a flight recorder tolerates.
//
//speedlight:shard
func (s *Sink) Anomaly(reason string, id packet.SeqID) {
	if s.cfg.OnAnomaly == nil {
		return
	}
	s.cfg.OnAnomaly(reason, id, s.cfg.Journal.Tail(FlightRecorderSize))
}

// Subscribe returns a channel that yields snapshot id once it
// completes, then closes. Subscribe before the snapshot can complete.
func (s *Sink) Subscribe(id packet.SeqID) <-chan *observer.GlobalSnapshot {
	sub := make(chan *observer.GlobalSnapshot, 1)
	s.mu.Lock()
	s.subs[id] = sub
	s.mu.Unlock()
	return sub
}

// Snapshots returns the global snapshots completed so far, oldest
// first. The list is append-only and returned capped without a copy:
// callers may read it freely but see later completions only by
// calling again.
func (s *Sink) Snapshots() []*observer.GlobalSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.done[:len(s.done):len(s.done)]
}

// CompletedEpochs returns how many global snapshots have completed;
// with Snapstore.Sealed it yields the store's ingestion lag.
func (s *Sink) CompletedEpochs() uint64 { return s.completed.Load() }

// Health returns the probe state behind /healthz and /readyz. It
// carries the store-lag check; the runtime flips readiness.
func (s *Sink) Health() *telemetry.Health { return s.health }

// Audit replays the journal and verifies every snapshot's consistency
// invariants. Safe while the runtime is running (the rings are read
// atomically). Nil when journaling is disabled.
func (s *Sink) Audit() *audit.Report {
	if s.cfg.Journal == nil {
		return nil
	}
	return audit.Run(s.cfg.Journal.Events(), audit.Config{
		MaxID:        uint64(s.cfg.MaxID),
		Wraparound:   s.cfg.WrapAround,
		ChannelState: s.cfg.ChannelState,
	})
}

// EpochTraces reconstructs per-epoch causal traces (wavefront, span
// tree, critical path) from the journal. Nil when journaling is
// disabled.
func (s *Sink) EpochTraces() []*epochtrace.EpochTrace {
	if s.cfg.Journal == nil {
		return nil
	}
	return epochtrace.Build(s.cfg.Journal.Events())
}

// MuxConfig returns the served endpoint set: /metrics and /trace from
// reg and tracer, the probes from Health, and /journal, /audit,
// /trace/epoch, /trace/critical, /snapshots and /invariants from
// whatever this sink has attached (the rest answer 503 "not
// attached"). blocking, when non-nil, adds a sharded engine's per-pair
// stall attribution to the critical-path rollup.
func (s *Sink) MuxConfig(reg *telemetry.Registry, tracer *telemetry.Tracer,
	blocking func() []epochtrace.ShardBlocking) telemetry.MuxConfig {
	mc := telemetry.MuxConfig{Registry: reg, Tracer: tracer, Health: s.health}
	if jr := s.cfg.Journal; jr != nil {
		mc.Journal = journal.HTTPHandler(jr.Events)
		mc.Audit = audit.HTTPHandler(s.Audit)
		mc.EpochTrace = epochtrace.HTTPHandler(s.EpochTraces, blocking)
	}
	if st := s.cfg.Snapstore; st != nil {
		mc.Snapshots = snapstore.HTTPHandler(st.View)
	}
	if s.cfg.Invariants != nil {
		mc.Invariants = invariant.HTTPHandler(s.cfg.Invariants)
	}
	return mc
}
