package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

func TestTracerSpans(t *testing.T) {
	tr := NewTracer(0)
	tr.BeginSnapshot(1, 100)
	tr.UnitResult(1, 0, 150)
	tr.UnitResult(1, 0, 180)
	tr.UnitResult(1, 2, 160)
	tr.EndSnapshot(1, 200, true)
	tr.BeginSnapshot(2, 300) // never completes

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(spans))
	}
	s := spans[0]
	if s.ID != 1 || s.BeginNs != 100 || s.EndNs != 200 || !s.Complete || !s.Consistent {
		t.Fatalf("span = %+v", s)
	}
	if len(s.Devices) != 2 {
		t.Fatalf("devices = %d, want 2", len(s.Devices))
	}
	if d := s.Devices[0]; d.Node != 0 || d.FirstNs != 150 || d.LastNs != 180 || d.Units != 2 {
		t.Fatalf("device 0 = %+v", d)
	}
	if d := s.Devices[1]; d.Node != 2 || d.FirstNs != 160 || d.LastNs != 160 || d.Units != 1 {
		t.Fatalf("device 2 = %+v", d)
	}
	if spans[1].Complete {
		t.Fatal("snapshot 2 must be incomplete")
	}
	// Nesting: each device span lies inside its snapshot span.
	for _, d := range s.Devices {
		if d.FirstNs < s.BeginNs || d.LastNs > s.EndNs {
			t.Fatalf("device span %+v escapes snapshot span %+v", d, s)
		}
	}
}

func TestTracerNilAndEviction(t *testing.T) {
	var nilT *Tracer
	nilT.BeginSnapshot(1, 0)
	nilT.UnitResult(1, 0, 0)
	nilT.EndSnapshot(1, 0, true)
	if nilT.Spans() != nil {
		t.Fatal("nil tracer must return nil spans")
	}

	tr := NewTracer(2)
	tr.BeginSnapshot(1, 0)
	tr.BeginSnapshot(2, 0)
	tr.BeginSnapshot(3, 0)
	spans := tr.Spans()
	if len(spans) != 2 || spans[0].ID != 2 || spans[1].ID != 3 {
		t.Fatalf("eviction kept %+v, want snapshots 2 and 3", spans)
	}
}

func TestChromeTraceFormat(t *testing.T) {
	tr := NewTracer(0)
	for id := uint64(1); id <= 3; id++ {
		at := int64(id * 1000)
		tr.BeginSnapshot(id, at)
		tr.UnitResult(id, 0, at+100)
		tr.UnitResult(id, 1, at+200)
		tr.EndSnapshot(id, at+500, true)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			PID  int     `json:"pid"`
			TID  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid chrome trace JSON: %v\n%s", err, buf.String())
	}
	var snapSpans, devSpans int
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if ev.TID == 0 {
			snapSpans++
			if ev.Dur <= 0 {
				t.Fatalf("snapshot span without duration: %+v", ev)
			}
		} else {
			devSpans++
		}
	}
	if snapSpans != 3 {
		t.Fatalf("snapshot spans = %d, want 3", snapSpans)
	}
	if devSpans != 6 {
		t.Fatalf("device spans = %d, want 6", devSpans)
	}
}

func TestServeEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("up_total", "liveness").Inc()
	tr := NewTracer(0)
	tr.BeginSnapshot(1, 0)
	tr.EndSnapshot(1, 10, true)

	srv, err := ServeConfig("127.0.0.1:0", MuxConfig{Registry: reg, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	if out := get("/metrics"); !strings.Contains(out, "up_total 1") {
		t.Fatalf("/metrics missing counter:\n%s", out)
	}
	vars := get("/debug/vars")
	var decoded map[string]json.RawMessage
	if err := json.Unmarshal([]byte(vars), &decoded); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}
	if _, ok := decoded["memstats"]; !ok {
		t.Fatalf("/debug/vars missing memstats: %s", vars)
	}
	if out := get("/debug/pprof/cmdline"); out == "" {
		t.Fatal("/debug/pprof/cmdline empty")
	}
	trace := get("/trace")
	if err := json.Unmarshal([]byte(trace), &struct{}{}); err != nil {
		t.Fatalf("/trace not JSON: %v", err)
	}
	if !strings.Contains(trace, `"snapshot 1"`) {
		t.Fatalf("/trace missing snapshot 1: %s", trace)
	}
}
