package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"speedlight/internal/emunet"
	"speedlight/internal/sim"
)

// tiny returns a small-scale copy of a workload: a few rounds of light
// traffic, so an episode runs in well under a second.
func tiny(t *testing.T, name string) workload {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	w.rate = w.rate / 20
	w.horizon = 12 * sim.Millisecond
	if w.analysis {
		w.horizon = 60 * sim.Millisecond
		w.journalRing = 1 << 12
	}
	return w
}

func tinyEpisode(t *testing.T, w workload, shards int, traced bool, tamper func(*emunet.Network)) *episode {
	t.Helper()
	hosts, err := fabricHosts()
	if err != nil {
		t.Fatal(err)
	}
	var rec *recorder
	if traced {
		rec = newRecorder()
	}
	ep, err := runEpisode(episodeOpts{
		w: w, seed: 7, scheds: generate(w, hosts, 7), shards: shards,
		traced: traced, rec: rec, tamper: tamper,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ep
}

// The fingerprint and exact counts repeat across episodes, engines and
// tracing, and every self-check passes on an honest run.
func TestEpisodesAgree(t *testing.T) {
	for _, name := range []string{"fabric-forward", "snapshot-storm"} {
		w := tiny(t, name)
		base := tinyEpisode(t, w, 0, false, nil)
		for _, other := range []struct {
			label  string
			shards int
			traced bool
		}{{"repeat", 0, false}, {"traced", 0, true}, {"sharded", 2, false}} {
			ep := tinyEpisode(t, w, other.shards, other.traced, nil)
			if len(ep.problems) > 0 {
				t.Errorf("%s %s: self-checks failed: %v", name, other.label, ep.problems)
			}
			if ep.fp != base.fp {
				t.Errorf("%s %s: fingerprint %s, want %s", name, other.label, ep.fp, base.fp)
			}
			if d := diffExact(base.exact, ep.exact); d != "" {
				t.Errorf("%s %s: exact counts differ: %s", name, other.label, d)
			}
		}
		if base.rounds == 0 || base.delivered == 0 || len(base.queries) == 0 {
			t.Errorf("%s: empty episode: %d rounds, %d delivered, %d queries", name, base.rounds, base.delivered, len(base.queries))
		}
	}
}

// A perturbed output changes the fingerprint, and the cross-episode
// check reports it.
func TestFingerprintCatchesPerturbation(t *testing.T) {
	ep := tinyEpisode(t, tiny(t, "fabric-forward"), 0, false, nil)
	g := ep.snaps[len(ep.snaps)-1]
	for u, r := range g.Results {
		r.Value++
		g.Results[u] = r
		break
	}
	perturbed := *ep
	perturbed.fp = fingerprint(ep.snaps, ep.syncs, ep.totals)
	if perturbed.fp == ep.fp {
		t.Fatal("changing one unit's value left the fingerprint unchanged")
	}
	problems := crossCheck([]*episode{ep, &perturbed}, nil)
	if len(problems) == 0 || !strings.Contains(problems[0], "fingerprint") {
		t.Fatalf("cross-episode check missed the perturbed fingerprint: %v", problems)
	}
	// Episodes of different input variants are not compared.
	perturbed.variant = 1
	if problems := crossCheck([]*episode{ep, &perturbed}, nil); len(problems) > 0 {
		t.Fatalf("episodes of different variants compared: %v", problems)
	}
}

// A pooled packet that never reaches a host or a drop fails the leak
// check, and the whole run then reports correct=false and exits 1.
func TestLeakedPacketFailsTheRun(t *testing.T) {
	leak := func(n *emunet.Network) {
		n.NewPacketFor(n.Topo().Hosts[0].ID)
	}
	ep := tinyEpisode(t, tiny(t, "fabric-forward"), 0, false, leak)
	if len(ep.problems) == 0 || !strings.Contains(ep.problems[0], "pooled packet") {
		t.Fatalf("leaked packet not reported: %v", ep.problems)
	}

	o := options{seed: 7, seconds: 0.01, minEpisodes: 1, outDir: t.TempDir(), tamper: leak}
	var out, errOut bytes.Buffer
	if code := execute(tiny(t, "fabric-forward"), o, &out, &errOut); code == 0 {
		t.Fatal("run with a leaked packet exited 0")
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if res.Correct {
		t.Fatal(`run with a leaked packet reported "correct": true`)
	}
}

// BENCHMARK.json at the repository root declares exactly the workloads
// and metrics this program runs and prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q vs %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, m := range want {
			if g := got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s %d: BENCHMARK.json %v, program %v", kind, i, g, m)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
