package main

import (
	"fmt"
	"time"

	"speedlight/internal/core"
	"speedlight/internal/counters"
	"speedlight/internal/dataplane"
	"speedlight/internal/packet"
	"speedlight/internal/routing"
	"speedlight/internal/snapstore"
	"speedlight/internal/topology"
)

// The isolated replays time one layer's public functions on the
// workload's own inputs, outside the emulation. Each repeats its pass
// and reports the median pass.
const (
	replayPasses = 5
	// replayPackets caps the packets one dataplane or core pass replays.
	replayPackets = 200_000
	// The facade's snapshot ID space.
	maxID = 256
)

// replayIDs is the workload's snapshot-ID sequence spread over n
// packets: packet i carries the wire ID of the snapshot whose round it
// falls in.
func replayIDs(ep *episode, n int) []packet.WireID {
	ids := make([]packet.WireID, n)
	if len(ep.snaps) == 0 {
		return ids
	}
	per := (n + len(ep.snaps) - 1) / len(ep.snaps)
	for i := range ids {
		ids[i] = packet.WireIDFromRaw(uint32(uint64(ep.snaps[i/per].ID) % maxID))
	}
	return ids
}

// replayDataplane pushes the workload's generated headers through a
// standalone copy of the first leaf's data plane, Ingress then Egress,
// and returns nanoseconds per traversal. Packets from the leaf's own
// hosts enter on their edge port without a snapshot header; the rest
// enter on an uplink carrying the workload's snapshot ID for their
// round.
func replayDataplane(ep *episode, w workload, scheds []*schedule, rec *recorder) (float64, error) {
	topo := ep.topo
	leaf := topo.Hosts[0].Node
	spec := topo.Switch(leaf)
	fibs, err := routing.ComputeFIBs(topo)
	if err != nil {
		return 0, fmt.Errorf("computing FIBs: %w", err)
	}
	edge := map[int]bool{}
	var uplinks []int
	for p, peer := range spec.Ports {
		if peer.Kind == topology.PeerHost {
			edge[p] = true
		} else {
			uplinks = append(uplinks, p)
		}
	}
	type hdr struct {
		port      int
		dst, size uint32
		sport     uint16
		fromEdge  bool
	}
	var hdrs []hdr
	for k := 0; len(hdrs) < replayPackets; k++ {
		added := false
		for _, s := range scheds {
			if k >= len(s.at) || len(hdrs) == replayPackets {
				continue
			}
			added = true
			h := hdr{dst: s.dst[k], size: s.size[k], sport: s.sport[k]}
			if src := topo.Host(s.host); src.Node == leaf {
				h.port, h.fromEdge = src.Port, true
			} else {
				h.port = uplinks[len(hdrs)%len(uplinks)]
			}
			hdrs = append(hdrs, h)
		}
		if !added {
			break
		}
	}
	if len(hdrs) == 0 {
		return 0, fmt.Errorf("dataplane replay: no packets")
	}
	ids := replayIDs(ep, len(hdrs))
	pass := func() (time.Duration, error) {
		sw, err := dataplane.New(dataplane.Config{
			Node: leaf, NumPorts: len(spec.Ports), MaxID: maxID, WrapAround: true,
			ChannelState: w.channelState,
			Metrics:      func(dataplane.UnitID) core.Metric { return &counters.PacketCount{} },
			FIB:          fibs[leaf], Balancer: routing.ECMP{}, EdgePorts: edge,
		})
		if err != nil {
			return 0, err
		}
		var pkt packet.Packet
		t := time.Now()
		for i, h := range hdrs {
			pkt = packet.Packet{DstHost: h.dst, SrcPort: h.sport, DstPort: 80, Proto: 6, Size: h.size}
			if !h.fromEdge {
				pkt.HasSnap = true
				pkt.Snap = packet.SnapshotHeader{Type: packet.TypeData, ID: ids[i]}
			}
			res := sw.Ingress(&pkt, h.port, 0)
			if !res.Drop {
				sw.Egress(&pkt, res.EgressPort, 0)
			}
			if i%64 == 63 {
				for {
					if _, ok := sw.PopNotif(); !ok {
						break
					}
				}
			}
		}
		return time.Since(t), nil
	}
	return medianPass(rec, "replay.dataplane", len(hdrs), pass)
}

// replayCore drives one standalone ingress unit through the workload's
// snapshot-ID sequence and returns nanoseconds per OnPacket.
func replayCore(ep *episode, w workload, rec *recorder) (float64, error) {
	ids := replayIDs(ep, replayPackets)
	pass := func() (time.Duration, error) {
		u, err := core.NewUnit(core.Config{
			MaxID: maxID, WrapAround: true, ChannelState: w.channelState,
			NumChannels: 2, CPChannel: 1,
		}, &counters.PacketCount{})
		if err != nil {
			return 0, err
		}
		pkt := packet.Packet{HasSnap: true, Snap: packet.SnapshotHeader{Type: packet.TypeData}}
		t := time.Now()
		for _, id := range ids {
			pkt.Snap.ID = id
			u.OnPacket(&pkt, 0)
		}
		return time.Since(t), nil
	}
	return medianPass(rec, "replay.core", len(ids), pass)
}

// replaySnapstore re-ingests the campaign's snapshots into a fresh
// store (microseconds per snapshot), then times the two halves of a
// query on it: View (nanoseconds) and State over every retained epoch
// (microseconds).
func replaySnapstore(ep *episode, rec *recorder) (ingestUs, viewNs, stateUs float64, err error) {
	if len(ep.snaps) == 0 {
		return 0, 0, 0, fmt.Errorf("snapstore replay: no snapshots")
	}
	var store *snapstore.Store
	ingest := func() (time.Duration, error) {
		t := time.Now()
		store = reingest(ep.snaps, ep.syncs)
		return time.Since(t), nil
	}
	if ingestUs, err = medianPass(rec, "replay.snapstore.ingest", len(ep.snaps), ingest); err != nil {
		return
	}
	const views = 100_000
	var v *snapstore.View
	view := func() (time.Duration, error) {
		t := time.Now()
		for i := 0; i < views; i++ {
			v = store.View()
		}
		return time.Since(t), nil
	}
	if viewNs, err = medianPass(rec, "replay.snapstore.view", views, view); err != nil {
		return
	}
	eps := v.Epochs()
	state := func() (time.Duration, error) {
		t := time.Now()
		for _, e := range eps {
			if _, err := v.State(e.ID); err != nil {
				return 0, err
			}
		}
		return time.Since(t), nil
	}
	if stateUs, err = medianPass(rec, "replay.snapstore.state", len(eps), state); err != nil {
		return
	}
	return ingestUs / 1e3, viewNs, stateUs / 1e3, nil
}

// timerBiasNs is what one timed call adds to its own reading: the mean
// of time.Since over an empty interval, median of replayPasses passes.
func timerBiasNs() float64 {
	const n = 1_000_000
	per := make([]float64, 0, replayPasses)
	for i := 0; i < replayPasses; i++ {
		var total int64
		for k := 0; k < n; k++ {
			t := time.Now()
			total += time.Since(t).Nanoseconds()
		}
		per = append(per, float64(total)/n)
	}
	return median(per)
}

// medianPass runs pass replayPasses times, recording a span named name
// for each, and returns the median pass time in nanoseconds per
// operation.
func medianPass(rec *recorder, name string, ops int, pass func() (time.Duration, error)) (float64, error) {
	per := make([]float64, 0, replayPasses)
	for i := 0; i < replayPasses; i++ {
		sp := rec.begin(name, -1)
		d, err := pass()
		rec.end(sp)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		per = append(per, float64(d.Nanoseconds())/float64(ops))
	}
	return median(per), nil
}
