package journal

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// WriteJSONL writes events as JSON Lines, one event object per line —
// the journal's canonical interchange format.
func WriteJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range events {
		if err := enc.Encode(&events[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL inverts WriteJSONL, skipping blank lines.
func ReadJSONL(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(text), &ev); err != nil {
			return nil, fmt.Errorf("journal: line %d: %w", line, err)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// String renders an event for humans — the witness-chain format the
// auditor and doctor subcommand print.
func (ev Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "#%d t=%dns %s", ev.Seq, ev.AtNs, ev.Kind)
	if ev.Switch == ObserverNode {
		b.WriteString(" observer")
	} else {
		fmt.Fprintf(&b, " sw%d", ev.Switch)
	}
	if ev.Port >= 0 {
		fmt.Fprintf(&b, "/port%d", ev.Port)
	}
	if ev.Dir != DirNone {
		fmt.Fprintf(&b, "/%s", ev.Dir)
	}
	if ev.Channel >= 0 {
		fmt.Fprintf(&b, " ch=%d", ev.Channel)
	}
	switch ev.Kind {
	case KindRecord, KindLastSeen, KindAbsorb, KindAbsorbMiss, KindRollover:
		fmt.Fprintf(&b, " id %d->%d", ev.OldID, ev.NewID)
	default:
		if ev.SnapshotID != 0 || ev.Kind == KindObsBegin {
			fmt.Fprintf(&b, " id=%d", ev.SnapshotID)
		}
	}
	switch ev.Kind {
	case KindResult:
		fmt.Fprintf(&b, " value=%d consistent=%v", ev.Value, ev.Flag)
	case KindObsResult:
		fmt.Fprintf(&b, " consistent=%v", ev.Flag)
	case KindObsComplete:
		fmt.Fprintf(&b, " consistent=%v excluded=%d", ev.Flag, ev.Value)
	case KindInitiate:
		if ev.Flag {
			b.WriteString(" reinit")
		}
	case KindConfig:
		fmt.Fprintf(&b, " max_id=%d wrap=%v channel_state=%v", ev.Value, ev.NewID == 1, ev.Flag)
	case KindMarkerSend:
		fmt.Fprintf(&b, " cos=%d", ev.Value)
	}
	return b.String()
}

// HTTPHandler serves the events returned by src as JSONL — the
// /journal endpoint on the telemetry mux.
func HTTPHandler(src func() []Event) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		if err := WriteJSONL(w, src()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}
