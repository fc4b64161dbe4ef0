package observer

import (
	"bytes"
	"encoding/csv"
	"testing"

	"speedlight/internal/control"
	"speedlight/internal/dataplane"
)

func sampleSnaps() []*GlobalSnapshot {
	return []*GlobalSnapshot{
		{
			ID: 7,
			Results: map[dataplane.UnitID]control.Result{
				{Node: 1, Port: 0, Dir: dataplane.Egress}:  {Value: 20, Consistent: true},
				{Node: 0, Port: 2, Dir: dataplane.Ingress}: {Value: 10, Consistent: true},
				{Node: 0, Port: 1, Dir: dataplane.Ingress}: {Value: 5, Consistent: false},
			},
			Consistent:  false,
			ScheduledAt: 1000,
			CompletedAt: 2000,
		},
	}
}

func TestRowsSortedAndComplete(t *testing.T) {
	rs := rows(sampleSnaps())
	if len(rs) != 3 {
		t.Fatalf("rows = %d", len(rs))
	}
	// Sorted by switch, port, direction.
	if rs[0].Switch != 0 || rs[0].Port != 1 {
		t.Errorf("first row %+v", rs[0])
	}
	if rs[2].Switch != 1 {
		t.Errorf("last row %+v", rs[2])
	}
	if rs[0].Consistent || !rs[1].Consistent {
		t.Error("consistency flags wrong")
	}
	if rs[0].ScheduledNs != 1000 || rs[0].CompletedNs != 2000 {
		t.Error("timestamps wrong")
	}
}

func TestSnapshotsCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := SnapshotsCSV(&buf, sampleSnaps()); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 4 { // header + 3 rows
		t.Fatalf("records = %d", len(records))
	}
	if records[0][0] != "snapshot_id" {
		t.Error("header missing")
	}
	if got := records[3]; got[0] != "7" || got[1] != "1" || got[3] != "egress" || got[4] != "20" || got[5] != "true" {
		t.Errorf("last row = %v", got)
	}
}

// TestEmptyInputs: no snapshots still writes the header, so the file
// is self-describing.
func TestEmptyInputs(t *testing.T) {
	if rs := rows(nil); len(rs) != 0 {
		t.Fatalf("rows(nil) = %v", rs)
	}
	var buf bytes.Buffer
	if err := SnapshotsCSV(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if records, err := csv.NewReader(&buf).ReadAll(); err != nil || len(records) != 1 {
		t.Fatalf("empty input: records = %v, err = %v", records, err)
	}
}
