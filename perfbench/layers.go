package main

import (
	"fmt"
	"sort"

	"speedlight/internal/audit"
	"speedlight/internal/epochtrace"
	"speedlight/internal/telemetry"
)

// metricDef is one reported metric. A unit ending in ".exact" marks a
// deterministic value: the same seed must reproduce it bit-for-bit, and
// the benchmark checks that across the episodes of every run.
type metricDef struct {
	name, unit, better string
}

// endToEnd lists the metrics a user of the system sees; they come only
// from untraced episodes.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"pkts_per_s", "1/s", "higher"},
	{"snaps_per_s", "1/s", "higher"},
	{"snap_ms_p50", "ms", "lower"},
	{"snap_ms_p90", "ms", "lower"},
	{"query_us_p50", "us", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer lists the per-layer metrics of a traced run, grouped by the
// repository module they measure.
var perLayer = []metricDef{
	{"sim.events", "count.exact", "lower"},
	{"sim.events_per_pkt", "per-pkt.exact", "lower"},
	{"sim.events_per_s", "1/s", "higher"},
	{"sim.run_s", "s", "lower"},
	{"sim.pending_max", "count", "lower"},
	{"sim.wait_frac", "frac", "lower"},
	{"sim.blocked_frac", "frac", "lower"},

	{"emunet.inject_ns", "ns", "lower"},
	{"emunet.queue_drops", "count.exact", "lower"},
	{"emunet.wire_drops", "count.exact", "lower"},
	{"emunet.queue_high_water", "count", "lower"},
	{"emunet.notif_drops", "count.exact", "lower"},
	{"emunet.residual_ns_per_pkt", "ns", "lower"},

	{"dataplane.ingress_pkts", "count.exact", "lower"},
	{"dataplane.egress_pkts", "count.exact", "lower"},
	{"dataplane.markers", "count.exact", "lower"},
	{"dataplane.rollovers", "count.exact", "lower"},
	{"dataplane.recirculations", "count.exact", "lower"},
	{"dataplane.notifs_generated", "count.exact", "lower"},
	{"dataplane.notifs_dropped", "count.exact", "lower"},
	{"dataplane.ns_per_pkt", "ns", "lower"},

	{"core.onpacket_ns", "ns", "lower"},

	{"control.initiations", "count.exact", "lower"},
	{"control.notifs_serviced", "count.exact", "lower"},
	{"control.results", "count.exact", "higher"},
	{"control.reinitiations", "count.exact", "lower"},
	{"control.polls", "count.exact", "lower"},

	{"observer.retries", "count.exact", "lower"},
	{"observer.exclusions", "count.exact", "lower"},
	{"observer.completion_vus_p50", "vus.exact", "lower"},
	{"observer.completion_vus_p99", "vus.exact", "lower"},
	{"observer.sync_vus_p50", "vus.exact", "lower"},
	{"observer.sync_vus_p99", "vus.exact", "lower"},

	{"journal.appended", "count.exact", "lower"},
	{"journal.overwritten", "count.exact", "lower"},
	{"journal.events_s", "s", "lower"},

	{"snapstore.seals", "count.exact", "higher"},
	{"snapstore.deltas", "count.exact", "lower"},
	{"snapstore.bases", "count.exact", "lower"},
	{"snapstore.promotions", "count.exact", "lower"},
	{"snapstore.lag_max", "count", "lower"},
	{"snapstore.ingest_us", "us", "lower"},
	{"snapstore.view_ns", "ns", "lower"},
	{"snapstore.state_us", "us", "lower"},

	{"invariant.evals", "count.exact", "higher"},

	{"audit.replay_s", "s", "lower"},
	{"audit.verdicts", "count.exact", "higher"},

	{"epochtrace.build_s", "s", "lower"},
	{"epochtrace.epochs", "count.exact", "higher"},

	{"go.allocs_per_pkt", "per-pkt", "lower"},
	{"go.gc_cycles", "count", "lower"},

	{"trace.overhead_frac", "frac", "lower"},
}

// registryCounters maps exact per-layer counts to the telemetry series
// a traced episode reads them from.
var registryCounters = map[string]string{
	"dataplane.ingress_pkts":     "speedlight_dp_packets_ingress_total",
	"dataplane.egress_pkts":      "speedlight_dp_packets_egress_total",
	"dataplane.markers":          "speedlight_dp_markers_total",
	"dataplane.rollovers":        "speedlight_dp_rollovers_total",
	"dataplane.recirculations":   "speedlight_dp_recirculations_total",
	"dataplane.notifs_generated": "speedlight_dp_notifs_generated_total",
	"dataplane.notifs_dropped":   "speedlight_dp_notifs_dropped_total",
	"control.initiations":        "speedlight_cp_initiations_total",
	"control.notifs_serviced":    "speedlight_cp_notifs_serviced_total",
	"control.results":            "speedlight_cp_results_total",
	"control.reinitiations":      "speedlight_cp_reinitiations_total",
	"control.polls":              "speedlight_cp_polls_total",
	"observer.retries":           "speedlight_obs_retries_total",
	"observer.exclusions":        "speedlight_obs_exclusions_total",
	"snapstore.seals":            "speedlight_snapstore_seals_total",
	"snapstore.deltas":           "speedlight_snapstore_deltas_total",
	"snapstore.bases":            "speedlight_snapstore_bases_total",
	"snapstore.promotions":       "speedlight_snapstore_promotions_total",
}

// collectExact records the episode's deterministic values, readable
// with or without telemetry.
func collectExact(ep *episode, d *driver, rep *audit.Report, traces []*epochtrace.EpochTrace) {
	in := d.net.Inner()
	x := ep.exact
	x["sim.events"] = float64(ep.events)
	x["sim.events_per_pkt"] = float64(ep.events) / float64(ep.delivered)
	x["episode.rounds"] = float64(ep.rounds)
	x["episode.delivered"] = float64(ep.delivered)
	x["emunet.queue_drops"] = float64(in.QueueDropsTotal())
	x["emunet.wire_drops"] = float64(in.WireDrops())
	x["emunet.notif_drops"] = float64(in.NotifDropsTotal())
	// Untraced, delivered is injected minus drops (the leak check has
	// shown nothing is left in flight); a traced episode replaces it
	// with the network's own delivery counter.
	x["emunet.delivered_total"] = float64(d.injected() - d.drops())
	if inv := d.net.Invariants(); inv != nil {
		var evals uint64
		for _, s := range inv.Status() {
			evals += s.Evals
		}
		x["invariant.evals"] = float64(evals)
	}
	if rep != nil {
		x["audit.verdicts"] = float64(len(rep.Verdicts))
	}
	x["epochtrace.epochs"] = float64(len(traces))
	var completion, syncs []float64
	for _, g := range ep.snaps {
		completion = append(completion, float64(g.CompletedAt.Sub(g.ScheduledAt))/1e3)
		syncs = append(syncs, float64(ep.syncs[uint64(g.ID)])/1e3)
	}
	x["observer.completion_vus_p50"] = quantile(completion, 0.5)
	x["observer.completion_vus_p99"] = quantile(completion, 0.99)
	x["observer.sync_vus_p50"] = quantile(syncs, 0.5)
	x["observer.sync_vus_p99"] = quantile(syncs, 0.99)
}

// collectTraced reads what only telemetry exposes: registry counters,
// the queue high-water mark and the sharded engine's wait profiles.
func collectTraced(ep *episode, d *driver, reg *telemetry.Registry) error {
	for name, series := range registryCounters {
		ep.exact[name] = float64(reg.Counter(series, "").Value())
	}
	delivered := reg.Counter("speedlight_net_packets_delivered_total", "").Value()
	if want := d.injected() - d.drops(); delivered != want {
		return fmt.Errorf("delivery counter reads %d, injected minus drops is %d", delivered, want)
	}
	ep.exact["emunet.delivered_total"] = float64(delivered)
	ep.layer["emunet.queue_high_water"] = float64(reg.Gauge("speedlight_net_queue_high_water", "").Value())

	var work, wait int64
	for _, s := range d.net.BarrierProfile() {
		work += s.WorkNs
		wait += s.WaitNs
	}
	ep.layer["sim.wait_frac"], ep.layer["sim.blocked_frac"] = 0, 0
	if total := work + wait; total > 0 {
		ep.layer["sim.wait_frac"] = float64(wait) / float64(total)
		if bl := d.net.BlockedProfile(); len(bl) > 0 {
			ep.layer["sim.blocked_frac"] = float64(bl[0].WaitNs) / float64(total)
			ep.notes = append(ep.notes, fmt.Sprintf("top blocking pair: shard %d waited %.3f ms on shard %d",
				bl[0].Waiter, float64(bl[0].WaitNs)/1e6, bl[0].Holdup))
		}
	}
	return nil
}

// diffExact names the first deterministic value two episodes disagree
// on, comparing only keys both recorded; "" when they agree.
func diffExact(a, b map[string]float64) string {
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if bv, ok := b[k]; ok && bv != a[k] {
			return fmt.Sprintf("%s: %v vs %v", k, a[k], bv)
		}
	}
	return ""
}

// layerMetrics fills out with every per-layer metric: deterministic
// counts from the first episodes, timings as medians over untraced
// episodes, telemetry readouts from traced ones, InjectFrom's cost from
// the timed ones, the Parallel engine's wait profile from the sharded
// one, and the isolated replays. It returns the
// reconciliation and profile notes.
func layerMetrics(w workload, plain, traced, timed []*episode, sharded *episode, scheds []*schedule, rec *recorder, out map[string]value) ([]string, error) {
	vals := map[string]float64{}
	for k, v := range plain[0].exact {
		vals[k] = v
	}
	for k, v := range traced[0].exact {
		vals[k] = v
	}
	med := func(eps []*episode, f func(*episode) float64) float64 {
		xs := make([]float64, len(eps))
		for i, ep := range eps {
			xs[i] = f(ep)
		}
		return median(xs)
	}
	vals["sim.events_per_s"] = med(plain, func(ep *episode) float64 { return float64(ep.events) / ep.regionS })
	vals["sim.run_s"] = med(plain, func(ep *episode) float64 { return ep.runS })
	vals["sim.pending_max"] = plain[0].layer["sim.pending_max"]
	vals["journal.events_s"] = med(traced, func(ep *episode) float64 { return ep.eventsS })
	vals["audit.replay_s"] = med(plain, func(ep *episode) float64 { return ep.auditS })
	vals["epochtrace.build_s"] = med(plain, func(ep *episode) float64 { return ep.tracesS })
	vals["go.allocs_per_pkt"] = med(plain, func(ep *episode) float64 { return float64(ep.mallocs) / float64(ep.delivered) })
	vals["go.gc_cycles"] = med(plain, func(ep *episode) float64 { return float64(ep.gcs) })
	var lag uint64
	for _, ep := range plain {
		lag = max(lag, ep.lagMax)
	}
	vals["snapstore.lag_max"] = float64(lag)
	vals["emunet.queue_high_water"] = med(traced, func(ep *episode) float64 { return ep.layer["emunet.queue_high_water"] })
	vals["sim.wait_frac"] = sharded.layer["sim.wait_frac"]
	vals["sim.blocked_frac"] = sharded.layer["sim.blocked_frac"]
	// Each timed call also counts the timer's own cost; take it off.
	bias := timerBiasNs()
	vals["emunet.inject_ns"] = med(timed, func(ep *episode) float64 {
		return float64(ep.injectNs)/float64(ep.injectCalls) - bias
	})
	// Tracing overhead compares the timed regions (the campaign and its
	// drain) of each traced episode and the untraced one run beside it.
	overhead := make([]float64, len(traced))
	for i := range traced {
		overhead[i] = traced[i].regionS/plain[i].regionS - 1
	}
	vals["trace.overhead_frac"] = median(overhead)

	var err error
	if vals["dataplane.ns_per_pkt"], err = replayDataplane(plain[0], w, scheds, rec); err != nil {
		return nil, err
	}
	if vals["core.onpacket_ns"], err = replayCore(plain[0], w, rec); err != nil {
		return nil, err
	}
	if vals["snapstore.ingest_us"], vals["snapstore.view_ns"], vals["snapstore.state_us"], err = replaySnapstore(plain[0], rec); err != nil {
		return nil, err
	}

	// Reconcile the untraced cost of a delivered packet with the layer
	// replays, each weighted by its exact calls per packet. OnPacket runs
	// inside every dataplane traversal, so it is not added again.
	nsPerPkt := med(plain, func(ep *episode) float64 { return ep.regionS * 1e9 / float64(ep.delivered) })
	delivered := vals["emunet.delivered_total"]
	traversals := vals["dataplane.ingress_pkts"] / delivered
	injects := (delivered + vals["emunet.queue_drops"] + vals["emunet.wire_drops"]) / delivered
	dp := traversals * vals["dataplane.ns_per_pkt"]
	inj := injects * vals["emunet.inject_ns"]
	vals["emunet.residual_ns_per_pkt"] = nsPerPkt - dp - inj
	notes := []string{fmt.Sprintf(
		"reconciliation: %.1f ns per delivered packet = dataplane %.2f traversals x %.1f ns (%.1f) + inject %.3f x %.1f ns (%.1f) + residual %.1f (sim queue, emunet queueing and wire hop, snapshot protocol); each traversal includes two core OnPacket calls of %.1f ns; timer cost %.1f ns taken off each InjectFrom",
		nsPerPkt, traversals, vals["dataplane.ns_per_pkt"], dp, injects, vals["emunet.inject_ns"], inj,
		vals["emunet.residual_ns_per_pkt"], vals["core.onpacket_ns"], bias)}
	notes = append(notes, sharded.notes...)

	for _, m := range perLayer {
		v, ok := vals[m.name]
		if !ok {
			v = 0 // the layer is not attached on this workload: it did no work
		}
		out[m.name] = value{Value: v, Unit: m.unit}
	}
	return notes, nil
}
