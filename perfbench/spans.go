package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around the public function it calls. Times are nanoseconds since the
// recorder's start; Parent is the ID of the enclosing span, or -1.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    string `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// callCount aggregates a high-rate call (one span each would cost more
// than the call): how many times it ran and its total wall time.
type callCount struct {
	Run     string `json:"run"`
	Name    string `json:"name"`
	Calls   uint64 `json:"calls"`
	TotalNs int64  `json:"total_ns"`
}

// recorder keeps spans in memory until the benchmark ends. A nil
// *recorder records nothing, so untraced episodes pay one nil check per
// boundary. Safe for concurrent use: the snapstore reader records its
// query spans from its own goroutine.
type recorder struct {
	start time.Time

	mu     sync.Mutex
	run    string
	spans  []span
	counts []callCount
}

func newRecorder() *recorder { return &recorder{start: time.Now()} }

// setRun names the run that subsequent spans belong to.
func (r *recorder) setRun(run string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.run = run
	r.mu.Unlock()
}

// begin opens a span and returns its ID (-1 on a nil recorder).
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.start).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Run: r.run, Name: name, Start: now, End: -1})
	return id
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.start).Nanoseconds()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// record adds an already-timed span.
func (r *recorder) record(name string, parent int, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{
		ID: len(r.spans), Parent: parent, Run: r.run, Name: name,
		Start: start.Sub(r.start).Nanoseconds(), End: end.Sub(r.start).Nanoseconds(),
	})
	r.mu.Unlock()
}

// count adds an aggregated high-rate call count to the current run.
func (r *recorder) count(name string, calls uint64, totalNs int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counts = append(r.counts, callCount{Run: r.run, Name: name, Calls: calls, TotalNs: totalNs})
	r.mu.Unlock()
}

// spanLayer names the layer a span's self time is charged to.
var spanLayer = map[string]string{
	"New":                     "emunet",
	"RunFor":                  "sim",
	"Snapshot":                "control+observer",
	"query":                   "snapstore",
	"queries":                 "snapstore",
	"Audit":                   "audit",
	"EpochTraces":             "epochtrace",
	"Events":                  "journal",
	"replay.dataplane":        "dataplane",
	"replay.core":             "core",
	"replay.snapstore.ingest": "snapstore",
	"replay.snapstore.view":   "snapstore",
	"replay.snapstore.state":  "snapstore",
}

// selfTimes returns, per span name, the summed self time in seconds:
// each span's duration minus the part of it its children cover.
func (r *recorder) selfTimes() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]float64)
	for _, s := range r.spans {
		if s.End < 0 {
			continue
		}
		out[s.Name] += float64(s.End-s.Start-covered(s, children[s.ID])) / 1e9
	}
	return out
}

// covered returns how many nanoseconds of parent the union of kids
// covers (children may overlap: reader queries run beside rounds).
func covered(parent span, kids []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if k.End >= 0 && b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, hi int64
	hi = parent.Start
	for _, v := range ivs {
		if v.a > hi {
			hi = v.a
		}
		if v.b > hi {
			total += v.b - hi
			hi = v.b
		}
	}
	return total
}

// write stores every span, then every call count, one JSON object per
// line.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	for _, c := range r.counts {
		if err := enc.Encode(c); err != nil {
			r.mu.Unlock()
			f.Close()
			return fmt.Errorf("writing call counts: %w", err)
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
