package journal

import (
	"bytes"
	"reflect"
	"testing"
)

// corpusBytes renders the full constructor corpus as JSONL for seeding.
func corpusBytes(t interface{ Fatal(...any) }) []byte {
	evs := allEvents()
	for i := range evs {
		evs[i].Seq = uint64(i + 1)
	}
	var jb bytes.Buffer
	if err := WriteJSONL(&jb, evs); err != nil {
		t.Fatal(err)
	}
	return jb.Bytes()
}

// FuzzJournalDecode feeds corrupted journal dumps to the decoder.
// Contract: arbitrary input must produce events or an error — never a
// panic — and anything that decodes must survive a write/read round
// trip unchanged.
func FuzzJournalDecode(f *testing.F) {
	jsonl := corpusBytes(f)
	f.Add(jsonl)
	f.Add(jsonl[:len(jsonl)/2])
	f.Add([]byte(""))
	f.Add([]byte("{}\n"))
	f.Add([]byte(`{"seq":1,"kind":"record"}` + "\n"))
	f.Add([]byte("seq,at_ns,kind\n1,2,record\n"))
	f.Add(append(append([]byte{}, jsonl[:40]...), 0xff, 0x00))
	f.Add([]byte("{\"seq\":18446744073709551615}\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		evs, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteJSONL(&buf, evs); err != nil {
			t.Fatalf("decoded JSONL does not re-encode: %v", err)
		}
		back, err := ReadJSONL(&buf)
		if err != nil {
			t.Fatalf("re-encoded JSONL does not decode: %v", err)
		}
		if !eventsEqual(evs, back) {
			t.Fatalf("JSONL round trip mismatch:\nin:  %+v\nout: %+v", evs, back)
		}
	})
}

func eventsEqual(a, b []Event) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}
