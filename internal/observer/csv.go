package observer

import (
	"encoding/csv"
	"io"
	"sort"
	"strconv"

	"speedlight/internal/dataplane"
	"speedlight/internal/packet"
)

// snapshotRow is one unit's value in one snapshot, flattened for
// serialization.
type snapshotRow struct {
	SnapshotID packet.SeqID
	Switch     int
	Port       int
	Direction  string
	Value      uint64
	Consistent bool
	// ScheduledNs and CompletedNs bracket the snapshot in virtual time.
	ScheduledNs int64
	CompletedNs int64
}

// rows flattens global snapshots into deterministic rows, sorted by
// switch, port and direction within each snapshot.
func rows(snaps []*GlobalSnapshot) []snapshotRow {
	var out []snapshotRow
	for _, g := range snaps {
		units := make([]dataplane.UnitID, 0, len(g.Results))
		for u := range g.Results {
			units = append(units, u)
		}
		sort.Slice(units, func(a, b int) bool {
			x, y := units[a], units[b]
			if x.Node != y.Node {
				return x.Node < y.Node
			}
			if x.Port != y.Port {
				return x.Port < y.Port
			}
			return x.Dir < y.Dir
		})
		for _, u := range units {
			res := g.Results[u]
			out = append(out, snapshotRow{
				SnapshotID:  g.ID,
				Switch:      int(u.Node),
				Port:        u.Port,
				Direction:   u.Dir.String(),
				Value:       res.Value,
				Consistent:  res.Consistent,
				ScheduledNs: int64(g.ScheduledAt),
				CompletedNs: int64(g.CompletedAt),
			})
		}
	}
	return out
}

// SnapshotsCSV writes snapshots as CSV with a header row: one row per
// unit per snapshot, in the order rows gives.
func SnapshotsCSV(w io.Writer, snaps []*GlobalSnapshot) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"snapshot_id", "switch", "port", "direction", "value",
		"consistent", "scheduled_ns", "completed_ns",
	}); err != nil {
		return err
	}
	for _, r := range rows(snaps) {
		if err := cw.Write([]string{
			strconv.FormatUint(uint64(r.SnapshotID), 10), strconv.Itoa(r.Switch), strconv.Itoa(r.Port),
			r.Direction, strconv.FormatUint(r.Value, 10), strconv.FormatBool(r.Consistent),
			strconv.FormatInt(r.ScheduledNs, 10), strconv.FormatInt(r.CompletedNs, 10),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
