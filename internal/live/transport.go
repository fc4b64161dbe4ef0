package live

import (
	"errors"
	"net"
	"sync"

	"speedlight/internal/telemetry"
)

// transport carries messages between the runtime's endpoints: one per
// switch, and the observer.
//
// Data packets one goroutine sends to one endpoint arrive in the order
// sent, or not at all, and so do control messages; the two lanes (see
// lane) are not ordered against each other. That is the FIFO-channel
// assumption snapshot consistency rests on: a switch goroutine forwards
// a link's packets in order, so its neighbor sees them in order. Loss
// is allowed; the observer's recovery path (msgRetry) copes with it.
type transport interface {
	// send hands m to endpoint to. With wait set it blocks until the
	// message is accepted or the transport closes; otherwise a full
	// buffer drops the message and returns errFull.
	send(to int, m msg, wait bool) error
	// recv blocks for endpoint at's next message; false once the
	// transport is closed. Each endpoint has a single receiver.
	recv(at int) (msg, bool)
	close()
}

var (
	errStopped = errors.New("live: network stopped")
	errFull    = errors.New("live: endpoint inbox full")
)

// inboxDepth bounds each in-process inbox: the link buffer a full
// switch drops at.
const inboxDepth = 4096

// lane picks the inbox, or the socket, that carries m to endpoint to.
// Every endpoint has two: data packets on lane 2·to, control
// (initiations, retries, results) on lane 2·to+1 — the management
// network of a real deployment. Traffic overrunning a switch fills its
// data lane and can never crowd out the control messages recovery
// depends on.
func lane(to int, m *msg) int {
	if m.kind == msgData {
		return 2 * to
	}
	return 2*to + 1
}

// chanTransport is the in-process transport: one buffered channel per
// lane.
type chanTransport struct {
	inboxes   []chan msg
	closed    chan struct{}
	once      sync.Once
	highWater *telemetry.Gauge
}

func newChanTransport(endpoints int, reg *telemetry.Registry) *chanTransport {
	t := &chanTransport{
		inboxes:   make([]chan msg, 2*endpoints),
		closed:    make(chan struct{}),
		highWater: reg.Gauge("speedlight_live_inbox_high_water", "deepest endpoint inbox occupancy"),
	}
	for i := range t.inboxes {
		t.inboxes[i] = make(chan msg, inboxDepth)
	}
	return t
}

func (t *chanTransport) send(to int, m msg, wait bool) error {
	return t.push(lane(to, &m), m, wait)
}

// push hands m to one lane's inbox.
func (t *chanTransport) push(l int, m msg, wait bool) error {
	ch := t.inboxes[l]
	if wait {
		select {
		case ch <- m:
		case <-t.closed:
			return errStopped
		}
	} else {
		select {
		case ch <- m:
		default:
			return errFull
		}
	}
	t.highWater.SetMax(int64(len(ch)))
	return nil
}

func (t *chanTransport) recv(at int) (msg, bool) {
	select {
	case m := <-t.inboxes[2*at+1]:
		return m, true
	case m := <-t.inboxes[2*at]:
		return m, true
	case <-t.closed:
		return msg{}, false
	}
}

func (t *chanTransport) close() { t.once.Do(func() { close(t.closed) }) }

// udpTransport carries every message as a datagram over loopback: one
// bound socket per lane, so data overrunning a switch is dropped by the
// kernel at its data socket, never at its control socket. One reader
// goroutine per socket decodes into the lane's in-process inbox; all
// senders share one unbound socket. Loopback delivers one sender's
// datagrams to one socket in order, or drops them.
type udpTransport struct {
	*chanTransport
	// in and addrs are indexed by lane.
	in    []*net.UDPConn
	addrs []*net.UDPAddr
	out   *net.UDPConn
	// bufs recycles encode buffers: senders run on many goroutines.
	bufs    sync.Pool
	readers sync.WaitGroup
}

// maxDatagram bounds a received frame.
const maxDatagram = 512

func listenUDP(endpoints int, reg *telemetry.Registry) (*udpTransport, error) {
	t := &udpTransport{
		chanTransport: newChanTransport(endpoints, reg),
		bufs: sync.Pool{New: func() any {
			b := make([]byte, 0, maxMsgLen)
			return &b
		}},
	}
	bind := func() (*net.UDPConn, error) {
		return net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	}
	var err error
	if t.out, err = bind(); err != nil {
		return nil, err
	}
	for i := 0; i < 2*endpoints; i++ {
		c, err := bind()
		if err != nil {
			t.close()
			return nil, err
		}
		t.in = append(t.in, c)
		t.addrs = append(t.addrs, c.LocalAddr().(*net.UDPAddr))
	}
	for i, c := range t.in {
		t.readers.Add(1)
		go t.read(c, i)
	}
	return t, nil
}

// read decodes one lane's datagrams into its inbox until the socket
// closes.
func (t *udpTransport) read(c *net.UDPConn, l int) {
	defer t.readers.Done()
	buf := make([]byte, maxDatagram)
	for {
		n, _, err := c.ReadFromUDP(buf)
		if err != nil {
			return // socket closed: shutdown
		}
		m, err := decodeMsg(buf[:n])
		if err != nil {
			continue // a garbage datagram: a real device would count and drop it
		}
		if t.push(l, m, true) != nil {
			return
		}
	}
}

func (t *udpTransport) send(to int, m msg, _ bool) error {
	addr := t.addrs[lane(to, &m)]
	bp := t.bufs.Get().(*[]byte)
	*bp = appendMsg((*bp)[:0], &m)
	_, err := t.out.WriteToUDP(*bp, addr)
	t.bufs.Put(bp)
	return err
}

func (t *udpTransport) close() {
	t.chanTransport.close()
	t.out.Close()
	for _, c := range t.in {
		c.Close()
	}
	t.readers.Wait()
}
