package live

import (
	"testing"
	"testing/quick"

	"speedlight/internal/control"
	"speedlight/internal/dataplane"
	"speedlight/internal/packet"
	"speedlight/internal/sim"
	"speedlight/internal/topology"
)

// sameMsg compares decoded messages field by field, packets by value.
func sameMsg(a, b msg) bool {
	if a.kind != b.kind || a.port != b.port || a.id != b.id || a.res != b.res {
		return false
	}
	if a.pkt == nil || b.pkt == nil {
		return a.pkt == b.pkt
	}
	return *a.pkt == *b.pkt
}

// roundTrip encodes m and decodes the frame.
func roundTrip(t *testing.T, m msg) msg {
	t.Helper()
	got, err := decodeMsg(appendMsg(nil, &m))
	if err != nil {
		t.Fatalf("decoding kind 0x%02x: %v", m.kind, err)
	}
	return got
}

func TestMessageCodecs(t *testing.T) {
	p := &packet.Packet{SrcHost: 1, DstHost: 2, Size: 100, HasSnap: true,
		Snap: packet.SnapshotHeader{Type: packet.TypeData, ID: 7, Channel: 3}}
	for _, m := range []msg{
		{kind: msgData, port: 12, pkt: p},
		{kind: msgInitiate, id: 987654321},
		{kind: msgRetry, id: 42},
		{kind: msgResult, res: control.Result{
			Unit:       dataplane.UnitID{Node: 3, Port: 9, Dir: dataplane.Egress},
			SnapshotID: 55, Value: 1 << 40, Consistent: true, ReadAt: 123456789,
		}},
	} {
		if got := roundTrip(t, m); !sameMsg(got, m) {
			t.Errorf("round trip: %+v -> %+v", m, got)
		}
	}
}

func TestResultCodecProperty(t *testing.T) {
	f := func(node uint16, port uint8, egress bool, id, value uint64, consistent bool, at int64) bool {
		dir := dataplane.Ingress
		if egress {
			dir = dataplane.Egress
		}
		m := msg{kind: msgResult, res: control.Result{
			Unit:       dataplane.UnitID{Node: topology.NodeID(node), Port: int(port), Dir: dir},
			SnapshotID: packet.SeqID(id), Value: value, Consistent: consistent,
			ReadAt: sim.Time(at & (1<<62 - 1)), // keep non-negative: protocol time
		}}
		got, err := decodeMsg(appendMsg(nil, &m))
		return err == nil && sameMsg(got, m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMessageCodecErrors(t *testing.T) {
	for _, data := range [][]byte{
		nil,                 // empty
		{0xEE},              // unknown type
		{msgData, 0},        // short data
		{msgData, 0, 1, 2},  // data with a truncated packet
		{msgInitiate},       // short initiate
		{msgRetry, 1, 2, 3}, // short retry
		{msgResult},         // short result
	} {
		if m, err := decodeMsg(data); err == nil {
			t.Errorf("decodeMsg(%x) accepted: %+v", data, m)
		}
	}
}

// TestAppendCodecAllocs pins the transport hot path: encoding into a
// reused scratch buffer allocates nothing. This is the contract that
// lets the UDP transport send every forwarded packet and result
// allocation-free.
//
//speedlight:allocgate live.appendMsg packet.Packet.AppendBinary
func TestAppendCodecAllocs(t *testing.T) {
	p := &packet.Packet{SrcHost: 1, DstHost: 2, Size: 100, HasSnap: true,
		Snap: packet.SnapshotHeader{Type: packet.TypeData, ID: 7, Channel: 3}}
	scratch := make([]byte, 0, maxMsgLen)
	for _, m := range []msg{
		{kind: msgData, port: 12, pkt: p},
		{kind: msgInitiate, id: 987654321},
		{kind: msgResult, res: control.Result{
			Unit:       dataplane.UnitID{Node: 3, Port: 9, Dir: dataplane.Egress},
			SnapshotID: 55, Value: 1 << 40, Consistent: true, ReadAt: 123456789,
		}},
	} {
		if n := testing.AllocsPerRun(1000, func() {
			scratch = appendMsg(scratch[:0], &m)
		}); n != 0 {
			t.Fatalf("appendMsg kind 0x%02x allocates %v per message, want 0", m.kind, n)
		}
	}
}
