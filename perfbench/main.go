// Command perfbench is the repository's benchmark. It runs one named
// workload through the public API — the speedlight facade, plus emunet
// via Network.Inner for per-host injection — checks that the outputs
// are correct, and prints every metric by name with its unit. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, taken from
// untraced episodes; with -trace 1 they are the per-layer ones, taken
// from traced episodes, untraced episodes beside them, untraced
// episodes that time InjectFrom, and isolated layer replays. See
// README.md.
//
//	go run . -workload fabric-forward -seed 1 -seconds 50 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"speedlight"
	"speedlight/internal/emunet"
	"speedlight/internal/topology"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	outDir   string
	// minEpisodes is the least number of untraced episodes (and, with
	// tracing, of traced ones) a run makes, however short -seconds is.
	// Untraced, it is one more than there are input variants, so the
	// first variant always runs twice. Traced, each variant already runs
	// three times in a row, and three suffice. Tests use one.
	minEpisodes int
	// tamper is passed to every episode (see episodeOpts); tests only.
	tamper func(*emunet.Network)
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{}
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+workloadNames())
	fs.Int64Var(&o.seed, "seed", 1, "seed the inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 50, "wall seconds of episodes to measure")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics from untraced episodes; 1: per-layer metrics from a traced run")
	fs.StringVar(&o.outDir, "out", ".bench_out", "directory for the result file and spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(o.workload)
	if !ok || (o.trace != 0 && o.trace != 1) || o.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -trace 0 or 1, -seconds > 0\n", workloadNames())
		return 2
	}
	o.minEpisodes = variants + 1
	if o.trace == 1 {
		o.minEpisodes = 3
	}
	return execute(w, o, stdout, stderr)
}

// execute runs the workload, prints the result line and returns the
// exit code: 0 when every self-check passed, 1 otherwise.
func execute(w workload, o options, stdout, stderr io.Writer) int {
	res, err := measure(w, o, stdout)
	if res == nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", jerr)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// report is the full record written beside the spans: the result, the
// environment stamp, every episode's fingerprint and the extra numbers
// the human-readable report prints.
type report struct {
	Env          envStamp           `json:"env"`
	Result       *result            `json:"result"`
	Fingerprints []string           `json:"fingerprints"`
	Extra        map[string]value   `json:"extra"`
	SelfTimeS    map[string]float64 `json:"self_time_s,omitempty"`
	Notes        []string           `json:"notes,omitempty"`
	Check        string             `json:"check"`
}

// measure runs the episodes and builds the result. A non-nil result
// with a non-nil error means a self-check failed; a nil result means
// the run could not complete.
func measure(w workload, o options, stdout io.Writer) (*result, error) {
	env := stamp(w, o.seed, o.trace)
	printf := func(format string, a ...any) { fmt.Fprintf(stdout, format+"\n", a...) }
	envJSON, _ := json.Marshal(env)
	printf("env %s", envJSON)

	hosts, err := fabricHosts()
	if err != nil {
		return nil, err
	}
	printf("inputs: %d variants, %d hosts, %.0f virtual ms of traffic each", variants, len(hosts), float64(w.horizon)/1e6)

	var rec *recorder
	if o.trace == 1 {
		rec = newRecorder()
	}
	// runOne runs episode i of kind "untraced", "traced" (telemetry
	// and spans), "inject-timed" (untraced, every InjectFrom timed) or
	// "sharded" (traced, on the Parallel engine), on input variant
	// i mod variants.
	runOne := func(kind string, i int) (*episode, error) {
		rec.setRun(fmt.Sprintf("%s/seed%d/%s%d", w.name, o.seed, kind, i))
		// Each variant has its own traffic and its own network seed, so a
		// run's rounds are not the same few repeated: a snapshot's wall
		// time depends on how many 1 ms facade steps its draws of
		// control-plane service time need, and a run should see many
		// such draws. The schedules are drawn again for each episode, so
		// only one variant's stay in memory.
		v := i % variants
		eo := episodeOpts{w: w, variant: v, seed: variantSeed(o.seed, v), tamper: o.tamper}
		eo.scheds = generate(w, hosts, eo.seed)
		runtime.GC() // leave the previous episode's garbage out of this one
		switch kind {
		case "traced":
			eo.traced, eo.rec = true, rec
		case "inject-timed":
			eo.timeInject = true
		case "sharded":
			eo.traced, eo.rec, eo.shards = true, rec, parallelShards
		}
		ep, err := runEpisode(eo)
		if err != nil {
			return nil, fmt.Errorf("%s episode %d: %w", kind, i, err)
		}
		if eo.timeInject {
			rec.count("InjectFrom", ep.injectCalls, ep.injectNs)
		}
		return ep, nil
	}

	// Episodes until -seconds of them have run. With tracing, an
	// untraced, a traced and an inject-timed episode take turns, so the
	// untraced/traced pair shares machine state.
	var plain, traced, timed []*episode
	start := time.Now()
	for i := 0; i < o.minEpisodes || time.Since(start).Seconds() < o.seconds; i++ {
		ep, err := runOne("untraced", i)
		if err != nil {
			return nil, err
		}
		plain = append(plain, ep)
		if o.trace == 1 {
			tr, err := runOne("traced", i)
			if err != nil {
				return nil, err
			}
			tm, err := runOne("inject-timed", i)
			if err != nil {
				return nil, err
			}
			traced, timed = append(traced, tr), append(timed, tm)
		}
	}
	all := append(append(append([]*episode(nil), plain...), traced...), timed...)
	var sharded *episode
	if o.trace == 1 {
		// The sharded engine must reproduce the serial engine exactly;
		// its wait profiles are the Parallel engine's per-layer numbers.
		var err error
		if sharded, err = runOne("sharded", 0); err != nil {
			return nil, err
		}
		printf("%d-shard fingerprint %s", parallelShards, sharded.fp)
	}
	problems := crossCheck(all, sharded)
	fps := make([]string, 0, len(all))
	for _, ep := range all {
		fps = append(fps, ep.fp)
	}

	res := &result{Metrics: map[string]value{}}
	for _, ep := range all {
		res.Attempted += ep.snapsAttempted + len(ep.queries)
		res.Failed += ep.snapsFailed
		for _, q := range ep.queries {
			if q.err != nil {
				res.Failed++
			}
		}
	}
	extra := endToEndMetrics(plain, res.Metrics)
	extra["failed_frac"] = value{float64(res.Failed) / float64(res.Attempted), "frac"}
	rep := &report{Env: env, Result: res, Fingerprints: fps, Extra: extra}
	if o.trace == 1 {
		e2e := res.Metrics
		res.Metrics = map[string]value{}
		rec.setRun(fmt.Sprintf("%s/seed%d/replay", w.name, o.seed))
		notes, err := layerMetrics(w, plain, traced, timed, sharded, generate(w, hosts, variantSeed(o.seed, 0)), rec, res.Metrics)
		if err != nil {
			return nil, err
		}
		for k, v := range e2e {
			extra[k] = v // reported, not gated: end-to-end comes from -trace 0
		}
		rep.Notes = notes
		rep.SelfTimeS = rec.selfTimes()
		if err := os.MkdirAll(o.outDir, 0o755); err != nil {
			return nil, err
		}
		spans := filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d-spans.jsonl", w.name, o.seed))
		if err := rec.write(spans); err != nil {
			return nil, err
		}
		printf("spans written to %s", spans)
	}
	res.Correct = len(problems) == 0
	rep.Check = "ok"
	if !res.Correct {
		rep.Check = strings.Join(problems, "; ")
	}

	printReport(stdout, o, rep, plain, traced, timed)
	if err := writeReport(o, w, rep); err != nil {
		return nil, err
	}
	if !res.Correct {
		return res, fmt.Errorf("self-check failed: %s", rep.Check)
	}
	return res, nil
}

// variants is how many input sets a run cycles through.
const variants = 8

// parallelShards is the shard count of a traced run's Parallel-engine
// episode. The benchmark keeps to two goroutines, the CPU count of the
// machine its figures were taken on (README.md, Noise).
const parallelShards = 2

// runShards lists the engines a run's episodes use (0 is the serial
// Engine).
func runShards(trace int) []int {
	if trace == 1 {
		return []int{0, parallelShards}
	}
	return []int{0}
}

// variantSeed derives the seed of one input variant from the run's.
func variantSeed(seed int64, v int) int64 { return seed*variants + int64(v) }

// crossCheck returns the failed self-checks of a run's episodes: each
// episode's own checks, and every fingerprint and exact count that does
// not repeat across the episodes of one input variant or, in a traced
// run, between the serial engine and the sharded episode (variant 0).
func crossCheck(all []*episode, sharded *episode) []string {
	var problems []string
	first := map[int]*episode{}
	for i, ep := range all {
		problems = append(problems, ep.problems...)
		f, ok := first[ep.variant]
		if !ok {
			first[ep.variant] = ep
			continue
		}
		if ep.fp != f.fp {
			problems = append(problems, fmt.Sprintf("episode %d fingerprint %s differs from %s, variant %d's first", i, ep.fp, f.fp, ep.variant))
		}
		for j := 0; j < i; j++ {
			if all[j].variant != ep.variant {
				continue
			}
			if diff := diffExact(all[j].exact, ep.exact); diff != "" {
				problems = append(problems, fmt.Sprintf("episode %d exact count differs from episode %d's: %s", i, j, diff))
				break
			}
		}
	}
	if sharded != nil {
		problems = append(problems, sharded.problems...)
		if sharded.fp != all[0].fp {
			problems = append(problems, fmt.Sprintf("sharded fingerprint %s differs from the serial engine's %s", sharded.fp, all[0].fp))
		}
		if diff := diffExact(all[0].exact, sharded.exact); diff != "" {
			problems = append(problems, "sharded exact count differs from the serial engine's: "+diff)
		}
	}
	return problems
}

// fabricHosts lists the shared fabric's host IDs.
func fabricHosts() ([]topology.HostID, error) {
	net, err := speedlight.New(speedlight.Config{
		Fabric: speedlight.Fabric{Leaves: fabricLeaves, Spines: fabricSpines, HostsPerLeaf: fabricHostsPerLeaf},
	})
	if err != nil {
		return nil, fmt.Errorf("building the fabric: %w", err)
	}
	var hosts []topology.HostID
	for _, h := range net.Hosts() {
		hosts = append(hosts, topology.HostID(h))
	}
	return hosts, nil
}

// endToEndMetrics fills out with the gated end-to-end metrics and
// returns the extra end-to-end numbers the report prints beside them.
func endToEndMetrics(plain []*episode, out map[string]value) map[string]value {
	var setup, pps, sps, analyze, snapMs, queryUs, lateUs []float64
	for _, ep := range plain {
		setup = append(setup, ep.setupS)
		pps = append(pps, float64(ep.delivered)/ep.regionS)
		sps = append(sps, float64(ep.rounds)/ep.loopS)
		analyze = append(analyze, ep.analyzeS)
		snapMs = append(snapMs, ep.snapMs...)
		for _, q := range ep.queries {
			queryUs = append(queryUs, float64(q.latency.Nanoseconds())/1e3)
			lateUs = append(lateUs, float64(q.late.Nanoseconds())/1e3)
		}
	}
	set := func(name string, v float64) {
		for _, m := range endToEnd {
			if m.name == name {
				out[name] = value{Value: v, Unit: m.unit}
				return
			}
		}
		panic("perfbench: undeclared metric " + name)
	}
	set("setup_s", median(setup))
	set("pkts_per_s", median(pps))
	set("snaps_per_s", median(sps))
	set("snap_ms_p50", quantile(snapMs, 0.5))
	set("snap_ms_p90", quantile(snapMs, 0.90))
	set("query_us_p50", quantile(queryUs, 0.5))
	set("peak_rss_mb", peakRSSMB())
	return map[string]value{
		"snap_ms_p95":       {quantile(snapMs, 0.95), "ms"},
		"snap_ms_p99":       {quantile(snapMs, 0.99), "ms"},
		"snap_samples":      {float64(len(snapMs)), "count"},
		"query_us_p90":      {quantile(queryUs, 0.90), "us"},
		"query_us_p99":      {quantile(queryUs, 0.99), "us"},
		"query_samples":     {float64(len(queryUs)), "count"},
		"query_late_us_p50": {quantile(lateUs, 0.5), "us"},
		"query_late_us_p99": {quantile(lateUs, 0.99), "us"},
		"analyze_s":         {median(analyze), "s"},
		"episodes":          {float64(len(plain)), "count"},
	}
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

func printReport(stdout io.Writer, o options, rep *report, plain, traced, timed []*episode) {
	printf := func(format string, a ...any) { fmt.Fprintf(stdout, format+"\n", a...) }
	printf("episodes: %d untraced, %d traced, %d inject-timed", len(plain), len(traced), len(timed))
	for v := 0; v < variants && v < len(plain); v++ {
		printf("variant %d: %d packets injected, fingerprint %s", v, plain[v].totals[1], plain[v].fp)
	}
	defs := endToEnd
	if o.trace == 1 {
		defs = perLayer
	}
	for _, m := range defs {
		v := rep.Result.Metrics[m.name]
		printf("metric %-30s %16.6g %s", m.name, v.Value, v.Unit)
	}
	keys := make([]string, 0, len(rep.Extra))
	for k := range rep.Extra {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		printf("extra  %-30s %16.6g %s", k, rep.Extra[k].Value, rep.Extra[k].Unit)
	}
	for _, n := range rep.Notes {
		printf("note   %s", n)
	}
	if len(rep.SelfTimeS) > 0 {
		names := make([]string, 0, len(rep.SelfTimeS))
		for k := range rep.SelfTimeS {
			names = append(names, k)
		}
		sort.Slice(names, func(i, j int) bool { return rep.SelfTimeS[names[i]] > rep.SelfTimeS[names[j]] })
		for _, k := range names {
			layer := spanLayer[k]
			if layer == "" {
				layer = "benchmark"
			}
			printf("self   %-16s %-24s %12.6f s", layer, k, rep.SelfTimeS[k])
		}
	}
	printf("check  %s", rep.Check)
}

func writeReport(o options, w workload, rep *report) error {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d-trace%d.json", w.name, o.seed, o.trace)), b, 0o644)
}
