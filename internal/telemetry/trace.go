package telemetry

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
)

// Tracer records the lifecycle of network-wide snapshots as spans:
// one span per snapshot from initiation to global assembly, with one
// nested span per device from its first finished unit result to its
// last. Timestamps are int64 nanoseconds on whatever clock the runtime
// uses (virtual time in the simulator, wall time since start in the
// live runtime) — the tracer only ever compares and subtracts them.
//
// All methods are safe for concurrent use and for nil receivers (a nil
// Tracer is the disabled state and records nothing).
type Tracer struct {
	mu    sync.Mutex
	limit int
	spans map[uint64]*traceSpan
	order []uint64
}

type traceSpan struct {
	begin      int64
	end        int64
	ended      bool
	consistent bool
	devOrder   []int
	devs       map[int]*traceDev
}

type traceDev struct {
	first, last int64
	units       int
}

// NewTracer creates a tracer retaining at most limit snapshots
// (oldest evicted first). limit <= 0 selects the default of 4096.
func NewTracer(limit int) *Tracer {
	if limit <= 0 {
		limit = 4096
	}
	return &Tracer{limit: limit, spans: make(map[uint64]*traceSpan)}
}

// BeginSnapshot opens the span for snapshot id at the given timestamp.
func (t *Tracer) BeginSnapshot(id uint64, atNs int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.spans[id]; ok {
		return
	}
	if len(t.order) >= t.limit {
		evict := t.order[0]
		t.order = t.order[1:]
		delete(t.spans, evict)
	}
	t.spans[id] = &traceSpan{begin: atNs, devs: make(map[int]*traceDev)}
	t.order = append(t.order, id)
}

// UnitResult records that one of device node's units finished its part
// of snapshot id at the given timestamp, growing the device's span.
func (t *Tracer) UnitResult(id uint64, node int, atNs int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.spans[id]
	if !ok {
		return
	}
	d, ok := s.devs[node]
	if !ok {
		d = &traceDev{first: atNs, last: atNs}
		s.devs[node] = d
		s.devOrder = append(s.devOrder, node)
	}
	if atNs < d.first {
		d.first = atNs
	}
	if atNs > d.last {
		d.last = atNs
	}
	d.units++
}

// EndSnapshot closes the span for snapshot id.
func (t *Tracer) EndSnapshot(id uint64, atNs int64, consistent bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.spans[id]
	if !ok {
		return
	}
	s.end = atNs
	s.ended = true
	s.consistent = consistent
}

// DeviceSpan is one device's contribution to a snapshot: the window
// between its first and last finished unit result.
type DeviceSpan struct {
	Node    int   `json:"node"`
	FirstNs int64 `json:"first_ns"`
	LastNs  int64 `json:"last_ns"`
	Units   int   `json:"units"`
}

// SnapshotSpan is one snapshot's full lifecycle.
type SnapshotSpan struct {
	ID         uint64       `json:"id"`
	BeginNs    int64        `json:"begin_ns"`
	EndNs      int64        `json:"end_ns"`
	Complete   bool         `json:"complete"`
	Consistent bool         `json:"consistent"`
	Devices    []DeviceSpan `json:"devices"`
}

// Spans returns every recorded snapshot span in snapshot-ID order,
// devices sorted by node.
func (t *Tracer) Spans() []SnapshotSpan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SnapshotSpan, 0, len(t.order))
	for _, id := range t.order {
		s := t.spans[id]
		span := SnapshotSpan{
			ID: id, BeginNs: s.begin, EndNs: s.end,
			Complete: s.ended, Consistent: s.consistent,
		}
		for _, node := range s.devOrder {
			d := s.devs[node]
			span.Devices = append(span.Devices, DeviceSpan{
				Node: node, FirstNs: d.first, LastNs: d.last, Units: d.units,
			})
		}
		sort.Slice(span.Devices, func(a, b int) bool { return span.Devices[a].Node < span.Devices[b].Node })
		out = append(out, span)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// chromeEvent is one entry of the Chrome trace_event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace renders the recorded spans in the Chrome
// trace_event JSON format, loadable in about://tracing and Perfetto.
// Track 0 holds one complete ("X") event per snapshot; each device gets
// its own track (tid = node+1) with one nested span per snapshot it
// contributed to. Incomplete snapshots are omitted.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	spans := t.Spans()
	events := []chromeEvent{
		{Name: "process_name", Ph: "M", PID: 1, Args: map[string]any{"name": "speedlight"}},
		{Name: "thread_name", Ph: "M", PID: 1, TID: 0, Args: map[string]any{"name": "snapshots"}},
	}
	named := map[int]bool{}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	for _, s := range spans {
		if !s.Complete {
			continue
		}
		events = append(events, chromeEvent{
			Name: "snapshot " + uitoa(s.ID), Cat: "snapshot", Ph: "X",
			TS: us(s.BeginNs), Dur: us(s.EndNs - s.BeginNs), PID: 1, TID: 0,
			Args: map[string]any{"id": s.ID, "consistent": s.Consistent, "devices": len(s.Devices)},
		})
		for _, d := range s.Devices {
			tid := d.Node + 1
			if !named[tid] {
				named[tid] = true
				events = append(events, chromeEvent{
					Name: "thread_name", Ph: "M", PID: 1, TID: tid,
					Args: map[string]any{"name": "sw" + itoa(d.Node)},
				})
			}
			dur := us(d.LastNs - d.FirstNs)
			if dur <= 0 {
				dur = 0.001 // minimum visible width
			}
			events = append(events, chromeEvent{
				Name: "snapshot " + uitoa(s.ID) + " sw" + itoa(d.Node), Cat: "device", Ph: "X",
				TS: us(d.FirstNs), Dur: dur, PID: 1, TID: tid,
				Args: map[string]any{"snapshot": s.ID, "units": d.Units},
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
	})
}

func itoa(v int) string { return uitoa(uint64(v)) }

func uitoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
