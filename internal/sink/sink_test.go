package sink

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"speedlight/internal/journal"
	"speedlight/internal/observer"
	"speedlight/internal/packet"
	"speedlight/internal/snapstore"
	"speedlight/internal/telemetry"
	"speedlight/internal/topology"
)

// TestSnapstoreLagFlipsReadyz seeds artificial ingestion lag and
// checks the served readiness probe reports it.
func TestSnapstoreLagFlipsReadyz(t *testing.T) {
	s := New(Config{Snapstore: snapstore.New(snapstore.Config{})})
	s.Health().SetReady(true)
	srv := httptest.NewServer(telemetry.NewMuxConfig(s.MuxConfig(nil, nil, nil)))
	defer srv.Close()
	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz = %d before lag, want 200", code)
	}
	// Simulate the observer racing ahead of the store: completed
	// epochs with nothing sealed.
	s.completed.Store(SnapstoreLagMax + 1)
	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz = %d with lag %d > max %d, want 503", code, SnapstoreLagMax+1, SnapstoreLagMax)
	}
	if code := get("/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz = %d with failing check, want 503", code)
	}
	s.completed.Store(0)
	if code := get("/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz = %d after lag cleared, want 200", code)
	}
}

// TestCompleteDumpsAnomaliesAndWakesSubscriber: an inconsistent and a
// partial cut each fire one flight-recorder dump of the configured
// tail, and every completion reaches its subscriber and the done list.
func TestCompleteDumpsAnomaliesAndWakesSubscriber(t *testing.T) {
	set := journal.NewSet(0)
	var reasons []string
	var dumpLens []int
	s := New(Config{
		MaxID: 64, WrapAround: true, Journal: set,
		OnAnomaly: func(reason string, _ packet.SeqID, dump []journal.Event) {
			reasons = append(reasons, reason)
			dumpLens = append(dumpLens, len(dump))
		},
	})
	// New stamped the config event; pad the ring past the dump size.
	for i := 0; i < FlightRecorderSize+10; i++ {
		set.Observer().Append(journal.Config(64, true, false))
	}
	sub := s.Subscribe(2)
	s.Complete(&observer.GlobalSnapshot{ID: 1, Consistent: true}, 0)
	s.Complete(&observer.GlobalSnapshot{ID: 2, Consistent: false}, 0)
	s.Complete(&observer.GlobalSnapshot{ID: 3, Consistent: true, Excluded: []topology.NodeID{4}}, 0)

	if g := <-sub; g.ID != 2 {
		t.Errorf("subscriber got snapshot %d, want 2", g.ID)
	}
	if _, open := <-sub; open {
		t.Error("subscriber channel left open")
	}
	if len(reasons) != 2 {
		t.Fatalf("anomalies = %q, want the inconsistent and the excluded cut", reasons)
	}
	for _, n := range dumpLens {
		if n != FlightRecorderSize {
			t.Errorf("dump carried %d events, want %d", n, FlightRecorderSize)
		}
	}
	if got := len(s.Snapshots()); got != 3 || s.CompletedEpochs() != 3 {
		t.Errorf("done list %d, completed %d, want 3", got, s.CompletedEpochs())
	}
	rep := s.Audit()
	if rep == nil || rep.MaxID != 64 || !rep.Wraparound {
		t.Errorf("audit did not recover the stamped config: %+v", rep)
	}
}
