package telemetry

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// dataEndpoints are the mux paths backed by optional subsystems. The
// contract under test: every one of them is always mounted, answers 503
// "not attached" before its subsystem is wired, and never panics on any
// partial MuxConfig.
var dataEndpoints = []string{
	"/journal", "/audit", "/snapshots", "/snapshots/diff",
	"/invariants", "/trace/epoch", "/trace/critical",
}

func muxGet(t *testing.T, mux *http.ServeMux, path string) int {
	t.Helper()
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec.Code
}

func TestMuxDataEndpointsBeforeAttach(t *testing.T) {
	mux := NewMuxConfig(MuxConfig{})
	for _, path := range dataEndpoints {
		if code := muxGet(t, mux, path); code != http.StatusServiceUnavailable {
			t.Errorf("%s before attach = %d, want 503", path, code)
		}
	}
}

func TestMuxHalfWiredConfigsNeverPanic(t *testing.T) {
	ok := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	// Every single-field config: the wired endpoint serves, the rest
	// answer 503, and building + serving never panics.
	configs := map[string]MuxConfig{
		"journal":    {Journal: ok},
		"audit":      {Audit: ok},
		"snapshots":  {Snapshots: ok},
		"invariants": {Invariants: ok},
		"epochtrace": {EpochTrace: ok},
	}
	served := map[string][]string{
		"journal":    {"/journal"},
		"audit":      {"/audit"},
		"snapshots":  {"/snapshots", "/snapshots/diff"},
		"invariants": {"/invariants"},
		"epochtrace": {"/trace/epoch", "/trace/critical"},
	}
	for name, cfg := range configs {
		mux := NewMuxConfig(cfg)
		wired := map[string]bool{}
		for _, p := range served[name] {
			wired[p] = true
		}
		for _, path := range dataEndpoints {
			want := http.StatusServiceUnavailable
			if wired[path] {
				want = http.StatusOK
			}
			if code := muxGet(t, mux, path); code != want {
				t.Errorf("config %q: %s = %d, want %d", name, path, code, want)
			}
		}
	}
}

func TestMuxTraceSubpathsDistinctFromLifecycleTrace(t *testing.T) {
	// /trace (PR 1's snapshot-lifecycle Chrome trace) keeps serving 200
	// with a nil tracer while the epoch endpoints answer independently.
	mux := NewMuxConfig(MuxConfig{})
	if code := muxGet(t, mux, "/trace"); code != http.StatusOK {
		t.Errorf("/trace = %d, want 200 (lifecycle tracer serves empty)", code)
	}
	attached := NewMuxConfig(MuxConfig{
		EpochTrace: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.WriteHeader(http.StatusOK)
		}),
	})
	if code := muxGet(t, attached, "/trace/epoch"); code != http.StatusOK {
		t.Errorf("/trace/epoch attached = %d, want 200", code)
	}
	if code := muxGet(t, attached, "/trace/critical"); code != http.StatusOK {
		t.Errorf("/trace/critical attached = %d, want 200", code)
	}
}

// TestMuxesExposeOnlyTheirOwnRegistry builds two muxes over different
// registries in one process: each serves its own registry on /metrics,
// and neither leaks the other's series through /debug/vars, which
// carries only Go's standard expvars.
func TestMuxesExposeOnlyTheirOwnRegistry(t *testing.T) {
	r1, r2 := NewRegistry(), NewRegistry()
	r1.Counter("alpha_total", "").Inc()
	r2.Counter("beta_total", "").Inc()
	m1 := NewMuxConfig(MuxConfig{Registry: r1})
	m2 := NewMuxConfig(MuxConfig{Registry: r2})
	body := func(mux *http.ServeMux, path string) string {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s = %d, want 200", path, rec.Code)
		}
		return rec.Body.String()
	}
	for _, c := range []struct {
		name      string
		mux       *http.ServeMux
		own, peer string
	}{
		{"mux 1", m1, "alpha_total", "beta_total"},
		{"mux 2", m2, "beta_total", "alpha_total"},
	} {
		metrics := body(c.mux, "/metrics")
		if !strings.Contains(metrics, c.own) || strings.Contains(metrics, c.peer) {
			t.Errorf("%s /metrics: want %s and not %s:\n%s", c.name, c.own, c.peer, metrics)
		}
		if vars := body(c.mux, "/debug/vars"); strings.Contains(vars, c.peer) {
			t.Errorf("%s /debug/vars exposes the other registry's %s", c.name, c.peer)
		}
	}
}
