package live

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"speedlight/internal/audit"
	"speedlight/internal/journal"
	"speedlight/internal/packet"
)

// TestJournalAndHealthEndpoints runs a journaled live network, takes a
// snapshot under real concurrency, and exercises the full diagnostic
// surface: /healthz, /readyz, /journal (both formats), and /audit.
func TestJournalAndHealthEndpoints(t *testing.T) {
	eachTransport(t, testJournalAndHealthEndpoints)
}

func testJournalAndHealthEndpoints(t *testing.T, udp bool) {
	ls := leafSpine(t)
	n, err := New(Config{
		Topo:        ls.Topology,
		UDP:         udp,
		MetricsAddr: "127.0.0.1:0",
		Journal:     journal.NewSet(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if n.Health().Ready() {
		t.Error("ready before Start")
	}
	n.Start()
	defer n.Stop()
	addr := n.MetricsAddr()
	if addr == "" {
		t.Fatal("metrics server did not bind")
	}

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body
	}

	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Errorf("/healthz = %d", code)
	}
	if code, _ := get("/readyz"); code != http.StatusOK {
		t.Errorf("/readyz after Start = %d", code)
	}

	// Traffic plus one snapshot, so the journal has a full story.
	for i := 0; i < 50; i++ {
		if err := n.Inject(0, &packet.Packet{DstHost: 3, Size: 100, SrcPort: uint16(i), Proto: 6}); err != nil {
			t.Fatal(err)
		}
	}
	_, sub, err := n.TakeSnapshot(time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-sub:
	case <-time.After(10 * time.Second):
		t.Fatal("snapshot did not complete")
	}

	code, body := get("/journal")
	if code != http.StatusOK {
		t.Fatalf("/journal = %d", code)
	}
	first := body
	if i := bytes.IndexByte(body, '\n'); i >= 0 {
		first = body[:i]
	}
	var ev journal.Event
	if err := json.Unmarshal(first, &ev); err != nil {
		t.Fatalf("/journal first line is not an event: %v", err)
	}

	code, body = get("/audit")
	if code != http.StatusOK {
		t.Fatalf("/audit = %d: %s", code, body)
	}
	var rep audit.Report
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatalf("/audit is not a report: %v", err)
	}
	if len(rep.Verdicts) == 0 {
		t.Fatal("audit saw no snapshots")
	}
	for _, v := range rep.Verdicts {
		if v.Kind == audit.Inconsistent {
			t.Errorf("snapshot %d audited inconsistent: %s", v.SnapshotID, v.Cause)
		}
	}
	if rep.Disagreements != 0 {
		t.Errorf("%d auditor/observer disagreements", rep.Disagreements)
	}

	n.Stop()
	if n.Health().Ready() {
		t.Error("still ready after Stop")
	}
}

// TestLiveCleanRunNoAnomaly: the OnAnomaly hook is wired through the
// live runtime but must stay silent on a clean start/stop. The
// deterministic fault-injection coverage lives in the emunet tests.
func TestLiveCleanRunNoAnomaly(t *testing.T) {
	eachTransport(t, testLiveCleanRunNoAnomaly)
}

func testLiveCleanRunNoAnomaly(t *testing.T, udp bool) {
	var dumps int
	ls := leafSpine(t)
	n, err := New(Config{
		Topo:    ls.Topology,
		UDP:     udp,
		Journal: journal.NewSet(0),
		OnAnomaly: func(reason string, id packet.SeqID, dump []journal.Event) {
			t.Errorf("clean run fired anomaly %q for snapshot %d (%d events)", reason, id, len(dump))
			dumps++
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	n.Stop()
	if dumps != 0 {
		t.Errorf("clean start/stop fired %d dumps", dumps)
	}
}
