package net

import (
	"errors"
	"fmt"
	gonet "net"
	"net/netip"
	"sync"
	"sync/atomic"
)

// UDPTransport runs the cluster over real datagrams. The address book is
// fixed up front (addrs[i] is node i's listen address); Endpoint(id)
// binds the socket and starts a read loop. UDP gives exactly the model's
// network for free: loss, duplication and reordering are all allowed,
// and the runtime's retries plus the protocols' self-stabilization
// absorb them.
//
// The address book is also the sender authentication: a node sends from
// the socket it listens on, so a datagram's source address names its
// sender, and one from an address outside the book is dropped (counted
// by UnknownSources).
type UDPTransport struct {
	mu       sync.Mutex
	addrs    []*gonet.UDPAddr
	prebound []*gonet.UDPConn
	attached []bool
	qcap     int
}

// NewUDPTransport builds a transport over an explicit address book.
// Endpoints bind lazily; qcap <= 0 selects DefaultQueue.
func NewUDPTransport(addrs []string, qcap int) (*UDPTransport, error) {
	if qcap <= 0 {
		qcap = DefaultQueue
	}
	t := &UDPTransport{
		addrs:    make([]*gonet.UDPAddr, len(addrs)),
		prebound: make([]*gonet.UDPConn, len(addrs)),
		attached: make([]bool, len(addrs)),
		qcap:     qcap,
	}
	for i, a := range addrs {
		ua, err := gonet.ResolveUDPAddr("udp", a)
		if err != nil {
			return nil, fmt.Errorf("net: resolve %q: %w", a, err)
		}
		t.addrs[i] = ua
	}
	return t, nil
}

// NewLoopbackUDP binds n sockets on 127.0.0.1 with kernel-chosen ports
// and returns a transport over them — the in-process way to run a real
// UDP cluster in tests without picking ports.
func NewLoopbackUDP(n, qcap int) (*UDPTransport, error) {
	if qcap <= 0 {
		qcap = DefaultQueue
	}
	t := &UDPTransport{
		addrs:    make([]*gonet.UDPAddr, n),
		prebound: make([]*gonet.UDPConn, n),
		attached: make([]bool, n),
		qcap:     qcap,
	}
	for i := 0; i < n; i++ {
		conn, err := gonet.ListenUDP("udp", &gonet.UDPAddr{IP: gonet.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Close()
			return nil, err
		}
		t.prebound[i] = conn
		t.addrs[i] = conn.LocalAddr().(*gonet.UDPAddr)
	}
	return t, nil
}

// Endpoint implements Transport. After a Close, calling it again rebinds
// the node's recorded address — a restart.
func (t *UDPTransport) Endpoint(id int) (Endpoint, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id < 0 || id >= len(t.addrs) {
		return nil, fmt.Errorf("net: endpoint id %d out of range [0,%d)", id, len(t.addrs))
	}
	if t.attached[id] {
		return nil, fmt.Errorf("net: endpoint %d already attached", id)
	}
	conn := t.prebound[id]
	t.prebound[id] = nil
	if conn == nil {
		var err error
		conn, err = gonet.ListenUDP("udp", t.addrs[id])
		if err != nil {
			return nil, err
		}
	}
	t.attached[id] = true
	e := newUDPEndpoint(id, conn, t.addrs, t.qcap)
	e.onClose = func() {
		t.mu.Lock()
		t.attached[id] = false
		t.mu.Unlock()
	}
	return e, nil
}

// Close implements Transport, releasing any sockets not yet handed out.
func (t *UDPTransport) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, c := range t.prebound {
		if c != nil {
			c.Close()
			t.prebound[i] = nil
		}
	}
	return nil
}

// NewUDPEndpoint builds a standalone endpoint for a node daemon (cmd/
// clocknode): bind listen, address peers[i] as node i. qcap <= 0 selects
// DefaultQueue. Datagrams are accepted only from the peers' addresses,
// so peers[i] must be the address node i sends from: its listen address,
// with a concrete IP rather than a wildcard, which sends from whatever
// address the route picks.
func NewUDPEndpoint(id int, listen string, peers []string, qcap int) (Endpoint, error) {
	if qcap <= 0 {
		qcap = DefaultQueue
	}
	la, err := gonet.ResolveUDPAddr("udp", listen)
	if err != nil {
		return nil, fmt.Errorf("net: resolve %q: %w", listen, err)
	}
	conn, err := gonet.ListenUDP("udp", la)
	if err != nil {
		return nil, err
	}
	addrs := make([]*gonet.UDPAddr, len(peers))
	for i, p := range peers {
		if addrs[i], err = gonet.ResolveUDPAddr("udp", p); err != nil {
			conn.Close()
			return nil, fmt.Errorf("net: resolve peer %q: %w", p, err)
		}
	}
	return newUDPEndpoint(id, conn, addrs, qcap), nil
}

type udpEndpoint struct {
	id    int
	conn  *gonet.UDPConn
	peers []*gonet.UDPAddr
	// ids maps a peer's (unmapped) address to its id: the sender of
	// every datagram the read loop delivers.
	ids     map[netip.AddrPort]int
	recv    chan Packet
	dropped atomic.Uint64
	unknown atomic.Uint64
	closed  atomic.Bool
	onClose func()
	done    sync.WaitGroup
}

// maxDatagram bounds one UDP read. Protocol messages are small (a beat's
// worth of field elements); anything larger is not ours.
const maxDatagram = 64 << 10

// recvChunk is the bump chunk received datagrams are copied into: several
// small frames share one allocation, each in a region of its own that the
// read loop never writes again. A datagram larger than the chunk gets an
// allocation of its own. 4 KiB holds a dozen n=4 link-beat frames
// (≈ 300 B each) while keeping small what a live endpoint pins: the
// current chunk, plus any whose frames the receiver still buffers.
const recvChunk = 4 << 10

func newUDPEndpoint(id int, conn *gonet.UDPConn, peers []*gonet.UDPAddr, qcap int) *udpEndpoint {
	e := &udpEndpoint{id: id, conn: conn, peers: peers, ids: make(map[netip.AddrPort]int, len(peers)), recv: make(chan Packet, qcap)}
	for i, a := range peers {
		e.ids[unmap(a.AddrPort())] = i
	}
	e.done.Add(1)
	go e.readLoop()
	return e
}

func (e *udpEndpoint) readLoop() {
	defer e.done.Done()
	defer close(e.recv)
	buf := make([]byte, maxDatagram)
	var chunk []byte
	for {
		// ReadFromUDPAddrPort, not ReadFromUDP: its address is a value,
		// so naming the sender allocates nothing.
		n, src, err := e.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			if e.closed.Load() || errors.Is(err, gonet.ErrClosed) {
				return
			}
			continue
		}
		from, ok := e.ids[unmap(src)]
		if !ok {
			e.unknown.Add(1)
			continue
		}
		var data []byte
		if n > recvChunk {
			data = make([]byte, n)
		} else {
			if len(chunk)+n > cap(chunk) {
				chunk = make([]byte, 0, recvChunk)
			}
			data = chunk[len(chunk) : len(chunk)+n : len(chunk)+n]
			chunk = chunk[:len(chunk)+n]
		}
		copy(data, buf[:n])
		select {
		case e.recv <- Packet{From: from, Data: data}:
		default:
			e.dropped.Add(1)
		}
	}
}

// unmap strips an IPv4-mapped IPv6 address to plain IPv4, so a
// dual-stack socket's view of a sender matches the address book's.
func unmap(a netip.AddrPort) netip.AddrPort {
	return netip.AddrPortFrom(a.Addr().Unmap(), a.Port())
}

func (e *udpEndpoint) ID() int { return e.id }

func (e *udpEndpoint) Send(to int, frame []byte) error {
	if e.closed.Load() {
		return ErrClosed
	}
	if to < 0 || to >= len(e.peers) {
		return fmt.Errorf("net: send to %d out of range", to)
	}
	if _, err := e.conn.WriteToUDP(frame, e.peers[to]); err != nil {
		// Best-effort, like the wire itself: count and move on.
		e.dropped.Add(1)
	}
	return nil
}

func (e *udpEndpoint) Recv() <-chan Packet { return e.recv }

func (e *udpEndpoint) Dropped() uint64 { return e.dropped.Load() }

// UnknownSources implements UnknownSourceCounter.
func (e *udpEndpoint) UnknownSources() uint64 { return e.unknown.Load() }

func (e *udpEndpoint) Close() error {
	if !e.closed.CompareAndSwap(false, true) {
		return nil
	}
	err := e.conn.Close()
	e.done.Wait()
	if e.onClose != nil {
		e.onClose()
	}
	return err
}
