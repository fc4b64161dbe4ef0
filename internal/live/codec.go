package live

import (
	"encoding/binary"
	"errors"
	"fmt"

	"speedlight/internal/control"
	"speedlight/internal/dataplane"
	"speedlight/internal/packet"
	"speedlight/internal/sim"
	"speedlight/internal/topology"
)

// Message kinds. The values double as the first byte of each frame on
// the UDP transport.
const (
	// msgData carries an emulated packet to a switch ingress port.
	msgData = 0x01
	// msgInitiate asks a switch control plane to initiate a snapshot.
	msgInitiate = 0x03
	// msgResult ships one finished unit result to the observer.
	msgResult = 0x04
	// msgRetry is the observer's recovery action for one switch:
	// re-initiate, flood marker broadcasts in channel-state mode
	// (Section 6 liveness for idle channels), and poll the registers
	// for notifications that never reached the control plane.
	msgRetry = 0x05
)

// msg is one message between runtime endpoints: a switch or the
// observer.
type msg struct {
	kind byte
	port int            // msgData: ingress port at the receiving switch
	pkt  *packet.Packet // msgData
	id   packet.SeqID   // msgInitiate, msgRetry
	res  control.Result // msgResult
}

// Codec errors.
var (
	errMsgShort   = errors.New("live: message too short")
	errMsgUnknown = errors.New("live: unknown message type")
)

// maxMsgLen bounds every frame appendMsg produces, sizing scratch
// buffers so steady state never grows them.
const maxMsgLen = 3 + packet.PacketMaxLen

// resultLen is the framed size of a control.Result.
const resultLen = 1 + 4 + 2 + 1 + 8 + 8 + 1 + 8

// appendMsg appends one framed message to dst and returns the extended
// slice, so a caller that reuses a scratch buffer
// (appendMsg(scratch[:0], m)) encodes without allocating.
//
//speedlight:hotpath
func appendMsg(dst []byte, m *msg) []byte {
	switch m.kind {
	case msgData:
		dst = binary.BigEndian.AppendUint16(append(dst, msgData), uint16(m.port))
		return m.pkt.AppendBinary(dst)
	case msgInitiate, msgRetry:
		return binary.BigEndian.AppendUint64(append(dst, m.kind), uint64(m.id))
	case msgResult:
		r := &m.res
		var dir, consistent byte
		if r.Unit.Dir == dataplane.Egress {
			dir = 1
		}
		if r.Consistent {
			consistent = 1
		}
		dst = binary.BigEndian.AppendUint32(append(dst, msgResult), uint32(r.Unit.Node))
		dst = append(binary.BigEndian.AppendUint16(dst, uint16(r.Unit.Port)), dir)
		dst = binary.BigEndian.AppendUint64(dst, uint64(r.SnapshotID))
		dst = append(binary.BigEndian.AppendUint64(dst, r.Value), consistent)
		return binary.BigEndian.AppendUint64(dst, uint64(r.ReadAt))
	}
	panic("live: encoding unknown message kind")
}

// decodeMsg parses one frame. Arbitrary bytes may arrive on a socket,
// so every length is checked.
func decodeMsg(data []byte) (msg, error) {
	if len(data) < 1 {
		return msg{}, errMsgShort
	}
	m := msg{kind: data[0]}
	switch m.kind {
	case msgData:
		if len(data) < 3 {
			return msg{}, errMsgShort
		}
		m.port = int(binary.BigEndian.Uint16(data[1:3]))
		m.pkt = &packet.Packet{}
		if err := m.pkt.UnmarshalBinary(data[3:]); err != nil {
			return msg{}, err
		}
	case msgInitiate, msgRetry:
		if len(data) < 9 {
			return msg{}, errMsgShort
		}
		m.id = packet.SeqID(binary.BigEndian.Uint64(data[1:9]))
	case msgResult:
		if len(data) < resultLen {
			return msg{}, errMsgShort
		}
		dir := dataplane.Ingress
		if data[7] == 1 {
			dir = dataplane.Egress
		}
		m.res = control.Result{
			Unit: dataplane.UnitID{
				Node: topology.NodeID(binary.BigEndian.Uint32(data[1:5])),
				Port: int(binary.BigEndian.Uint16(data[5:7])),
				Dir:  dir,
			},
			SnapshotID: packet.SeqID(binary.BigEndian.Uint64(data[8:16])),
			Value:      binary.BigEndian.Uint64(data[16:24]),
			Consistent: data[24] == 1,
			ReadAt:     sim.Time(binary.BigEndian.Uint64(data[25:33])),
		}
	default:
		return msg{}, fmt.Errorf("%w: 0x%02x", errMsgUnknown, data[0])
	}
	return m, nil
}
