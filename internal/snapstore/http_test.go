package snapstore_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"speedlight/internal/dataplane"
	"speedlight/internal/snapstore"
)

func get(t *testing.T, h http.Handler, target string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
	var body map[string]any
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("GET %s: bad JSON: %v\n%s", target, err, rec.Body.String())
		}
	}
	return rec, body
}

func TestHTTPHandler(t *testing.T) {
	s := snapstore.New(snapstore.Config{})
	u0, u1 := unit(0, 0, dataplane.Ingress), unit(0, 1, dataplane.Egress)
	seal(s, 5, map[dataplane.UnitID]uint64{u0: 10, u1: 20})
	seal(s, 6, map[dataplane.UnitID]uint64{u0: 10, u1: 33})

	h := snapstore.HTTPHandler(s.View)

	// List.
	rec, body := get(t, h, "/snapshots")
	if rec.Code != http.StatusOK {
		t.Fatalf("list: %d", rec.Code)
	}
	if n := body["retained"].(float64); n != 2 {
		t.Fatalf("retained = %v, want 2", n)
	}
	epochs := body["epochs"].([]any)
	first := epochs[0].(map[string]any)
	if first["epoch"].(float64) != 5 || first["base"] != true {
		t.Fatalf("first listed epoch = %v", first)
	}

	// State at epoch 6.
	rec, body = get(t, h, "/snapshots?epoch=6")
	if rec.Code != http.StatusOK {
		t.Fatalf("state: %d %s", rec.Code, rec.Body.String())
	}
	units := body["units"].([]any)
	if len(units) != 2 {
		t.Fatalf("state has %d units, want 2", len(units))
	}
	u := units[1].(map[string]any)
	if u["unit"] != u1.String() || u["value"].(float64) != 33 {
		t.Fatalf("unit[1] = %v, want %s=33", u, u1)
	}

	// Diff.
	rec, body = get(t, h, "/snapshots/diff?from=5&to=6")
	if rec.Code != http.StatusOK {
		t.Fatalf("diff: %d %s", rec.Code, rec.Body.String())
	}
	changed := body["changed"].([]any)
	if len(changed) != 1 {
		t.Fatalf("diff changed %d regs, want 1: %v", len(changed), changed)
	}
	c := changed[0].(map[string]any)
	if c["unit"] != u1.String() {
		t.Fatalf("changed unit = %v, want %s", c["unit"], u1)
	}
	if c["from"].(map[string]any)["value"].(float64) != 20 || c["to"].(map[string]any)["value"].(float64) != 33 {
		t.Fatalf("diff values = %v", c)
	}

	// Errors.
	if rec, _ := get(t, h, "/snapshots?epoch=99"); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown epoch: %d, want 404", rec.Code)
	}
	if rec, _ := get(t, h, "/snapshots?epoch=bogus"); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad epoch: %d, want 400", rec.Code)
	}
	if rec, _ := get(t, h, "/snapshots/diff?from=5"); rec.Code != http.StatusBadRequest {
		t.Fatalf("diff missing to: %d, want 400", rec.Code)
	}
	if rec, _ := get(t, h, "/snapshots/diff?from=5&to=99"); rec.Code != http.StatusNotFound {
		t.Fatalf("diff unknown epoch: %d, want 404", rec.Code)
	}
}

func TestHTTPHandlerNilSource(t *testing.T) {
	rec := httptest.NewRecorder()
	snapstore.HTTPHandler(nil).ServeHTTP(rec, httptest.NewRequest("GET", "/snapshots", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("nil source: %d, want 503", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "no snapshot store") {
		t.Fatalf("nil source body: %q", rec.Body.String())
	}
}

func TestWriteJSONL(t *testing.T) {
	s := snapstore.New(snapstore.Config{})
	u0, u1, u2 := unit(0, 1, dataplane.Ingress), unit(0, 2, dataplane.Ingress), unit(1, 0, dataplane.Egress)
	seal(s, 7, map[dataplane.UnitID]uint64{u2: 20, u1: 10, u0: 5})
	seal(s, 8, map[dataplane.UnitID]uint64{u2: 21, u1: 10, u0: 5})

	var buf bytes.Buffer
	if err := snapstore.WriteJSONL(&buf, s.View()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("wrote %d lines, want 2:\n%s", len(lines), buf.String())
	}
	var first struct {
		Epoch uint64 `json:"epoch"`
		Base  bool   `json:"base"`
		Units []struct {
			Unit  string `json:"unit"`
			Value uint64 `json:"value"`
		} `json:"units"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("line 1: %v", err)
	}
	if first.Epoch != 7 || !first.Base {
		t.Fatalf("line 1 = %+v, want epoch 7 base", first)
	}
	if len(first.Units) != 3 {
		t.Fatalf("line 1 has %d units, want 3", len(first.Units))
	}
	// Dense unit order is the store's canonical (switch, port, dir)
	// order from Ingest.
	if first.Units[0].Unit != "sw0/p1/ingress" || first.Units[0].Value != 5 {
		t.Fatalf("first unit = %+v", first.Units[0])
	}

	// Each line is the ?epoch=N answer, compacted: one encoding.
	h := snapstore.HTTPHandler(s.View)
	for i, id := range []string{"7", "8"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/snapshots?epoch="+id, nil))
		var compact bytes.Buffer
		if err := json.Compact(&compact, rec.Body.Bytes()); err != nil {
			t.Fatal(err)
		}
		if compact.String() != lines[i] {
			t.Fatalf("epoch %s: JSONL line\n%s\ndiffers from ?epoch= answer\n%s", id, lines[i], compact.String())
		}
	}
}

func TestWriteJSONLEmptyView(t *testing.T) {
	s := snapstore.New(snapstore.Config{})
	var buf bytes.Buffer
	if err := snapstore.WriteJSONL(&buf, s.View()); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("empty view wrote %q", buf.String())
	}
}
