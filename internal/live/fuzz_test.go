package live

import (
	"testing"

	"speedlight/internal/control"
	"speedlight/internal/dataplane"
	"speedlight/internal/packet"
)

// FuzzWireMessages feeds arbitrary datagrams through the transport
// codec. Contract: no input panics, and any message that decodes
// successfully must survive an encode/decode round trip unchanged (the
// datagram a node would forward is the datagram it understood).
func FuzzWireMessages(f *testing.F) {
	// One well-formed seed per message type (data with and without a
	// snapshot header), plus pathological shapes.
	pkt := &packet.Packet{
		SrcHost: 1,
		DstHost: 2,
		SrcPort: 1000,
		DstPort: 2000,
		Proto:   17,
		Size:    1500,
		Seq:     99,
		CoS:     1,
	}
	f.Add(appendMsg(nil, &msg{kind: msgData, port: 3, pkt: pkt}))
	marked := *pkt
	marked.HasSnap = true
	marked.Snap = packet.SnapshotHeader{Type: packet.TypeData, ID: 7, Channel: 2}
	f.Add(appendMsg(nil, &msg{kind: msgData, port: 4, pkt: &marked}))
	f.Add(appendMsg(nil, &msg{kind: msgInitiate, id: 41}))
	f.Add(appendMsg(nil, &msg{kind: msgRetry, id: 41}))
	f.Add(appendMsg(nil, &msg{kind: msgResult, res: control.Result{
		Unit:       dataplane.UnitID{Node: 2, Port: 5, Dir: dataplane.Egress},
		SnapshotID: 17,
		Value:      123456,
		Consistent: true,
		ReadAt:     999,
	}}))
	f.Add([]byte{})
	f.Add([]byte{msgData})
	f.Add([]byte{msgResult, 0xff})
	f.Add([]byte{0x7f, 0x00, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeMsg(data)
		if err != nil {
			return // rejected inputs just must not panic
		}
		m2, err := decodeMsg(appendMsg(nil, &m))
		if err != nil {
			t.Fatalf("re-encoded kind 0x%02x does not decode: %v", m.kind, err)
		}
		if !sameMsg(m, m2) {
			t.Fatalf("round trip: %+v -> %+v", m, m2)
		}
	})
}
