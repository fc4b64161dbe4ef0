package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sync/atomic"
	"syscall"
	"time"

	"speedlight/internal/dataplane"
	"speedlight/internal/observer"
	"speedlight/internal/packet"
	"speedlight/internal/sim"
	"speedlight/internal/snapstore"
)

// query is one snapstore read: View() then State(epoch), issued by an
// open-loop generator at a fixed wall-clock rate. Queries walk the
// retained epochs round-robin, so every run asks for the same mix of
// cheap (near a checkpoint) and expensive reconstructions.
type query struct {
	epoch packet.SeqID
	// late is how far after its due time the query started; latency
	// runs from the due time to completion, so a stalled reader
	// charges the wait to every query it delays.
	late, latency time.Duration
	// nregs and digest summarize the returned cut for the correctness
	// check against the observer's own snapshot.
	nregs  int
	digest uint64
	err    error
}

// reader issues queries against a store. When completed is set it
// also samples the store's ingestion lag (completed epochs minus
// sealed ones) at every query.
type reader struct {
	store     *snapstore.Store
	completed func() uint64
	rate      float64
	rec       *recorder
	parent    int

	lagMax uint64
}

// The reader sleeps until spinBefore ahead of a query's due time, then
// spins until it is due, so sleep overshoot does not show up as query
// latency. It sleeps in the kernel (nanosleep) rather than on a runtime
// timer: a timer can wait for the busy simulator's scheduling point and
// fire milliseconds late. It does not yield while spinning; a yield
// hands the CPU to the runtime's background sweeper and scavenger,
// which delays the query.
const (
	spinBefore = 500 * time.Microsecond
	sleepMin   = 200 * time.Microsecond
)

// run issues queries at the reader's rate until stop is set, and
// returns them.
func (r *reader) run(stop *atomic.Bool) []query {
	period := time.Duration(float64(time.Second) / r.rate)
	var out []query
	start := time.Now()
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * period)
		if d := time.Until(due) - spinBefore; d >= sleepMin {
			ts := syscall.NsecToTimespec(d.Nanoseconds())
			_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep just spins longer
		}
		for time.Now().Before(due) {
			if stop.Load() {
				return out
			}
		}
		if stop.Load() {
			return out
		}
		out = append(out, r.one(k, due))
	}
}

// queryBurst issues n queries back to back, each due when it starts,
// so its latency is the query's own time. It serves a store that
// nothing writes to any more. An untimed pass of n queries comes
// first: the first queries on a fresh store run from cold caches and
// fresh heap pages, and took three times as long as later ones.
func queryBurst(store *snapstore.Store, n int, rec *recorder, parent int) []query {
	r := &reader{store: store}
	for k := 0; k < n; k++ {
		r.one(k, time.Now())
	}
	r.rec, r.parent = rec, parent
	out := make([]query, n)
	for k := range out {
		out[k] = r.one(k, time.Now())
	}
	return out
}

// reingest builds a fresh store from a campaign's completed snapshots,
// in completion order, as the observer would have sealed them.
func reingest(snaps []*observer.GlobalSnapshot, syncs map[uint64]sim.Duration) *snapstore.Store {
	store := snapstore.New(snapstore.Config{})
	for _, g := range snaps {
		store.Ingest(g, syncs[uint64(g.ID)])
	}
	return store
}

func (r *reader) one(k int, due time.Time) query {
	began := time.Now()
	v := r.store.View()
	eps := v.Epochs()
	if len(eps) == 0 {
		return query{late: began.Sub(due), latency: time.Since(due), err: fmt.Errorf("empty view")}
	}
	id := eps[k%len(eps)].ID
	st, err := v.State(id)
	done := time.Now()
	r.rec.record("query", r.parent, began, done)
	q := query{epoch: id, late: began.Sub(due), latency: done.Sub(due), err: err}
	if err == nil {
		q.nregs = len(st.Regs)
		q.digest = regsDigest(st.Regs)
	}
	if r.completed != nil {
		if c, s := r.completed(), r.store.Sealed(); c > s && c-s > r.lagMax {
			r.lagMax = c - s
		}
	}
	return q
}

// regsDigest hashes a reconstructed cut: the index, value and
// consistency of every present register.
func regsDigest(regs []snapstore.Reg) uint64 {
	h := fnv.New64a()
	var b [17]byte
	for i, reg := range regs {
		if !reg.Present {
			continue
		}
		binary.LittleEndian.PutUint64(b[0:], uint64(i))
		binary.LittleEndian.PutUint64(b[8:], reg.Value)
		b[16] = 0
		if reg.Consistent {
			b[16] = 1
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// expectedDigest is regsDigest of the cut the observer assembled for
// g, over the first n units of the store's unit table.
func expectedDigest(g *observer.GlobalSnapshot, units []dataplane.UnitID, n int) uint64 {
	regs := make([]snapstore.Reg, n)
	for i, u := range units[:n] {
		if res, ok := g.Results[u]; ok {
			regs[i] = snapstore.Reg{Value: res.Value, Consistent: res.Consistent, Present: true}
		}
	}
	return regsDigest(regs)
}

// checkQueries verifies every query returned exactly the cut the
// observer assembled for its epoch.
func checkQueries(qs []query, snaps []*observer.GlobalSnapshot, units []dataplane.UnitID) error {
	byID := make(map[packet.SeqID]*observer.GlobalSnapshot, len(snaps))
	for _, g := range snaps {
		byID[g.ID] = g
	}
	for _, q := range qs {
		if q.err != nil {
			continue // counted as a failed query, not a wrong answer
		}
		g, ok := byID[q.epoch]
		if !ok {
			return fmt.Errorf("query returned epoch %d the observer never completed", q.epoch)
		}
		if q.nregs > len(units) {
			return fmt.Errorf("query of epoch %d returned %d registers, store knows %d units", q.epoch, q.nregs, len(units))
		}
		if want := expectedDigest(g, units, q.nregs); q.digest != want {
			return fmt.Errorf("query of epoch %d returned a cut that differs from the observer's", q.epoch)
		}
	}
	return nil
}
