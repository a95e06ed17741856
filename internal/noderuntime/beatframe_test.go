package noderuntime

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ssbyzclock/internal/coin"
	"ssbyzclock/internal/core"
	"ssbyzclock/internal/field"
	"ssbyzclock/internal/gvss"
	"ssbyzclock/internal/net"
	"ssbyzclock/internal/proto"
	"ssbyzclock/internal/wire"
)

// countingTransport counts raw Send calls per endpoint id, below the
// fault wrapper: what actually reaches the medium.
type countingTransport struct {
	net.Transport
	mu    sync.Mutex
	sends map[int]*atomic.Int64
	raw   []net.Endpoint
}

type countingEndpoint struct {
	net.Endpoint
	sends *atomic.Int64
}

func (e countingEndpoint) Send(to int, frame []byte) error {
	e.sends.Add(1)
	return e.Endpoint.Send(to, frame)
}

func (t *countingTransport) Endpoint(id int) (net.Endpoint, error) {
	ep, err := t.Transport.Endpoint(id)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sends == nil {
		t.sends = map[int]*atomic.Int64{}
	}
	if t.sends[id] == nil {
		t.sends[id] = &atomic.Int64{}
	}
	t.raw = append(t.raw, ep)
	return countingEndpoint{Endpoint: ep, sends: t.sends[id]}, nil
}

// TestLockstepSendsOneFramePerLinkPerBeat pins the fold's transport
// claim as an exact count: on ideal links a node-beat is one frame per
// link — n for an honest node, n-f for an adversary-hosted id (the
// adversary's ids talk to honest nodes only) — however many messages
// the protocol composed.
func TestLockstepSendsOneFramePerLinkPerBeat(t *testing.T) {
	const beats = 12
	for _, sz := range []struct{ n, f int }{{4, 1}, {7, 2}} {
		tr := &countingTransport{Transport: net.NewChanTransport(sz.n, 0)}
		cl, err := NewCluster(ClusterConfig{
			N: sz.n, F: sz.f, Seed: 9, ScrambleStart: true,
			Mode:      Lockstep,
			Factory:   core.NewClockSyncProtocol(16, coin.FMFactory{}),
			Transport: tr,
			MaxBeats:  beats,
		})
		if err != nil {
			t.Fatal(err)
		}
		cl.Start()
		cl.Wait()
		cl.Stop()
		for id := 0; id < sz.n; id++ {
			want := int64(beats * sz.n)
			if cl.Node(id) == nil {
				want = int64(beats * (sz.n - sz.f))
			}
			if got := tr.sends[id].Load(); got != want {
				t.Fatalf("n=%d node %d: %d raw sends over %d beats, want exactly %d", sz.n, id, got, beats, want)
			}
		}
	}
}

// recProto records what Deliver hands it.
type recProto struct{ got []proto.Recv }

func (*recProto) Compose(uint64) []proto.Send { return nil }
func (p *recProto) Deliver(_ uint64, inbox []proto.Recv) {
	p.got = append(p.got[:0], inbox...)
}

// nullEndpoint is an endpoint nothing is ever sent to or received from;
// the ingest tests feed packets to the node directly.
type nullEndpoint struct{}

func (nullEndpoint) ID() int                 { return 0 }
func (nullEndpoint) Send(int, []byte) error  { return nil }
func (nullEndpoint) Recv() <-chan net.Packet { return nil }
func (nullEndpoint) Dropped() uint64         { return 0 }
func (nullEndpoint) Close() error            { return nil }

func newIngestNode() (*Node, *recProto) {
	p := &recProto{}
	return NewNode(NodeConfig{N: 4, F: 1, ID: 0, Mode: Real, Endpoint: nullEndpoint{}, Protocols: []proto.Protocol{p}}), p
}

// clockFrame encodes the beat frame with header f whose messages are
// FullClockMsgs with the given values; a message's seq is its position
// plus 100 per part index, as if every part held a hundred messages.
func clockFrame(f wire.Frame, vals ...uint64) []byte {
	run := make([]wire.BatchMsg, len(vals))
	for i, v := range vals {
		payload, _ := wire.Encode(core.FullClockMsg{V: v})
		run[i] = wire.BatchMsg{Seq: 100*f.Seq + uint32(i), Payload: payload}
	}
	f.Kind = wire.KindBatch
	f.Payload = wire.AppendBatchPayload(nil, 0, [][]wire.BatchMsg{run})
	return wire.AppendFrame(nil, f)
}

// delivered delivers beat r and returns the clock values handed over,
// in inbox order.
func delivered(nd *Node, p *recProto, r uint64) []uint64 {
	nd.deliverBeat(r)
	var out []uint64
	for _, rc := range p.got {
		out = append(out, rc.Msg.(core.FullClockMsg).V)
	}
	return out
}

func equalU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestIngestDedupAndCompleteness is the receive-side contract as a
// table: each case feeds packets to a fresh node at beat 0 and states
// how many senders are complete for beat 0 and what beat 0 delivers.
func TestIngestDedupAndCompleteness(t *testing.T) {
	pkt := func(transportFrom int, data []byte) net.Packet { return net.Packet{From: transportFrom, Data: data} }
	// A batch whose one run claims more messages than the cap.
	tooMany := binary.AppendUvarint([]byte{0, 1}, wire.MaxBatchMsgs+1)
	cases := []struct {
		name     string
		packets  []net.Packet
		complete int
		want     []uint64
	}{
		{"one frame", []net.Packet{
			pkt(1, clockFrame(wire.Frame{From: 1}, 7, 8)),
		}, 1, []uint64{7, 8}},
		{"retransmission delivers once", []net.Packet{
			pkt(1, clockFrame(wire.Frame{From: 1}, 7)),
			pkt(1, clockFrame(wire.Frame{From: 1}, 7)),
		}, 1, []uint64{7}},
		{"injected copy delivers twice, and is not the marker", []net.Packet{
			pkt(1, clockFrame(wire.Frame{From: 1, Copy: 1}, 7)),
		}, 0, []uint64{7}},
		{"injected copy then original", []net.Packet{
			pkt(1, clockFrame(wire.Frame{From: 1, Copy: 1}, 7)),
			pkt(1, clockFrame(wire.Frame{From: 1}, 7)),
		}, 1, []uint64{7, 7}},
		{"a different frame under the same key loses to the first", []net.Packet{
			pkt(1, clockFrame(wire.Frame{From: 1}, 7)),
			pkt(1, clockFrame(wire.Frame{From: 1}, 9, 9)),
		}, 1, []uint64{7}},
		{"two parts: complete only with both", []net.Packet{
			pkt(1, clockFrame(wire.Frame{From: 1, Seq: 1, Parts: 2}, 8)),
		}, 0, []uint64{8}},
		{"two parts, both here", []net.Packet{
			pkt(1, clockFrame(wire.Frame{From: 1, Seq: 1, Parts: 2}, 8)),
			pkt(1, clockFrame(wire.Frame{From: 1, Seq: 0, Parts: 2}, 7)),
		}, 1, []uint64{7, 8}},
		{"a part contradicting the declared count is ignored", []net.Packet{
			pkt(1, clockFrame(wire.Frame{From: 1, Seq: 0, Parts: 2}, 7)),
			pkt(1, clockFrame(wire.Frame{From: 1, Seq: 1, Parts: 3}, 8)),
		}, 0, []uint64{7}},
		{"more parts than the cap", []net.Packet{
			pkt(1, clockFrame(wire.Frame{From: 1, Parts: wire.MaxFrameParts + 1}, 7)),
		}, 0, nil},
		{"more messages than the cap delivers nothing", []net.Packet{
			pkt(1, wire.AppendFrame(nil, wire.Frame{Kind: wire.KindBatch, From: 1, Payload: tooMany})),
		}, 1, nil},
		{"header sender differs from transport sender", []net.Packet{
			pkt(2, clockFrame(wire.Frame{From: 1}, 7)),
		}, 0, nil},
		{"unauthenticated transport trusts the header", []net.Packet{
			pkt(-1, clockFrame(wire.Frame{From: 1}, 7)),
		}, 1, []uint64{7}},
		{"sender outside the cluster", []net.Packet{
			pkt(-1, clockFrame(wire.Frame{From: 4}, 7)),
		}, 0, nil},
		{"delayed frame: marker now, messages later", []net.Packet{
			pkt(1, clockFrame(wire.Frame{From: 1, DeliveryBeat: 2}, 7)),
		}, 1, nil},
		{"beyond the window", []net.Packet{
			pkt(1, clockFrame(wire.Frame{From: 1, Beat: Window + 1, DeliveryBeat: Window + 1}, 7)),
		}, 0, nil},
		{"pre-fold frame kinds are noise", []net.Packet{
			pkt(1, wire.AppendFrame(nil, wire.Frame{Kind: wire.KindMark, From: 1})),
			pkt(1, wire.AppendFrame(nil, wire.Frame{Kind: wire.KindMsg, From: 1, Payload: []byte{8, 7}})),
		}, 0, nil},
		{"canonical order: honest by sender then seq, the faulty id last", []net.Packet{
			pkt(3, clockFrame(wire.Frame{From: 3}, 30)),
			pkt(2, clockFrame(wire.Frame{From: 2}, 20, 21)),
			pkt(1, clockFrame(wire.Frame{From: 1}, 10)),
		}, 3, []uint64{10, 20, 21, 30}},
	}
	for _, c := range cases {
		nd, p := newIngestNode()
		nd.cfg.Faulty = []bool{false, false, false, true}
		nd.inbox.faulty = nd.cfg.Faulty
		for _, pk := range c.packets {
			nd.ingest(pk)
		}
		if got := nd.completePeers(0); got != c.complete {
			t.Errorf("%s: %d complete peers, want %d", c.name, got, c.complete)
		}
		if got := delivered(nd, p, 0); !equalU64(got, c.want) {
			t.Errorf("%s: delivered %v, want %v", c.name, got, c.want)
		}
	}

	// The delayed frame's messages surface at their delivery beat, after
	// the slots in between were recycled.
	nd, p := newIngestNode()
	nd.ingest(pkt(1, clockFrame(wire.Frame{From: 1, DeliveryBeat: 2}, 7)))
	for r := uint64(0); r < 2; r++ {
		if got := delivered(nd, p, r); got != nil {
			t.Fatalf("beat %d delivered %v before its time", r, got)
		}
		nd.win.drop(r)
		nd.cur++
	}
	if got := delivered(nd, p, 2); !equalU64(got, []uint64{7}) {
		t.Fatalf("delayed frame delivered %v at its delivery beat, want [7]", got)
	}
}

// TestQuorumBeatMatchesSort drives random ingest and catch-up sequences
// through nodes of assorted shapes and holds the cached quorum beat to
// its definition after every step: the (n-f)-th largest peerAt entry,
// by sorting.
func TestQuorumBeatMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(10)
		f := rng.Intn(n)
		nd := NewNode(NodeConfig{N: n, F: f, Mode: Real, Endpoint: nullEndpoint{}, Protocols: []proto.Protocol{&recProto{}}})
		for step := 0; step < 200; step++ {
			if rng.Intn(8) == 0 {
				nd.maybeJump()
			} else {
				beat := nd.cur + uint64(rng.Intn(3*Window))
				beat -= min(beat, uint64(rng.Intn(Window)))
				nd.ingest(net.Packet{From: -1, Data: clockFrame(wire.Frame{From: rng.Intn(n), Beat: beat, DeliveryBeat: beat}, 1)})
			}
			ref := slices.Clone(nd.peerAt)
			slices.Sort(ref)
			if got := nd.quorumBeat(); got != ref[f] {
				t.Fatalf("n=%d f=%d step %d: quorumBeat %d, want %d (peerAt %v)", n, f, step, got, ref[f], nd.peerAt)
			}
		}
	}
}

// FuzzIngestDeliver feeds arbitrary bytes through ingest and
// deliverBeat: nothing may panic, and a frame whose batch payload is
// malformed must deliver nothing — the all-or-nothing property
// DecodeBatchPayload documents, seen end to end.
func FuzzIngestDeliver(f *testing.F) {
	f.Add(clockFrame(wire.Frame{From: 1}, 7, 8))
	f.Add(clockFrame(wire.Frame{From: 2, Seq: 1, Parts: 2, Copy: 1, DeliveryBeat: 1}, 9))
	f.Add(wire.AppendFrame(nil, wire.Frame{Kind: wire.KindBatch, From: 1, Payload: []byte{0, 1, 200}}))
	f.Add(wire.AppendFrame(nil, wire.Frame{Kind: wire.KindMark, From: 3, Beat: 1, DeliveryBeat: 1}))
	f.Add([]byte{1, 3, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		nd, p := newIngestNode()
		nd.ingest(net.Packet{From: -1, Data: data})
		wellFormed := 0
		if fr, err := wire.DecodeFrame(data); err == nil {
			if wire.DecodeBatchPayload(fr.Payload, 1, func(int, uint32, []byte) { wellFormed++ }) != nil {
				wellFormed = 0
			}
		}
		total := 0
		for r := uint64(0); r <= Window; r++ {
			nd.deliverBeat(r)
			total += len(p.got)
			nd.win.drop(r)
			nd.cur++
		}
		if total > wellFormed {
			t.Fatalf("delivered %d messages from a frame holding %d well-formed ones", total, wellFormed)
		}
	})
}

// fatProto sends fatMsgs broadcast messages of fatElems elements each
// per beat — far more than one datagram per link — and checks what it
// is handed: per beat, how many senders' traffic arrived whole, and
// whether anything arrived altered.
type fatProto struct {
	id    int
	whole map[uint64]int // delivered beat -> senders whose every message arrived
	bad   int            // messages that arrived altered
}

const (
	fatMsgs  = 24
	fatElems = 1500 // five wire bytes each
)

// fatRow is the content of sender from's seq-th message at beat; its
// first element names seq, so a receiver can check a message without
// trusting its position.
func fatRow(from int, beat uint64, seq int) field.Poly {
	row := make(field.Poly, fatElems)
	row[0] = field.Elem(seq)
	for i := 1; i < fatElems; i++ {
		row[i] = field.Elem(1<<30 + (uint64(from)<<20^beat<<12^uint64(seq)<<6^uint64(i))%(1<<30))
	}
	return row
}

func (p *fatProto) Compose(beat uint64) []proto.Send {
	out := make([]proto.Send, fatMsgs)
	for seq := range out {
		out[seq] = proto.Send{To: proto.Broadcast, Msg: gvss.ShareMsg{Rows: []field.Poly{fatRow(p.id, beat, seq)}}}
	}
	return out
}

func (p *fatProto) Deliver(beat uint64, inbox []proto.Recv) {
	perSender := map[int]int{}
	for _, rc := range inbox {
		m, ok := gvss.AsShare(rc.Msg)
		if !ok || len(m.Rows) != 1 || len(m.Rows[0]) != fatElems || !slices.Equal(m.Rows[0], fatRow(rc.From, beat, int(m.Rows[0][0]))) {
			p.bad++
		}
		perSender[rc.From]++
	}
	whole := 0
	for _, k := range perSender {
		if k == fatMsgs {
			whole++
		}
	}
	p.whole[beat] = whole
}

// TestFatLinkBeatCrossesUDP: a link-beat of ~180 KB — four datagrams'
// worth — must cross loopback UDP as part frames, not vanish as one
// oversize datagram the socket refuses. Every node reaches MaxBeats,
// nothing arrives altered, no endpoint counts a refused send, and every
// beat was delivered with a quorum's traffic whole by all nodes but at
// most one: with no timeout in play only the last node out of a beat
// can leave it on the catch-up signal instead of on whole frames.
func TestFatLinkBeatCrossesUDP(t *testing.T) {
	const n, f, beats = 4, 1, 8
	udp, err := net.NewLoopbackUDP(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr := &countingTransport{Transport: udp}
	protos := make([]*fatProto, n)
	cl, err := NewCluster(ClusterConfig{
		N: n, F: f, Seed: 5,
		Mode: Real,
		Factory: func(env proto.Env) proto.Protocol {
			protos[env.ID] = &fatProto{id: env.ID, whole: map[uint64]int{}}
			return protos[env.ID]
		},
		Transport: tr,
		MaxBeats:  beats,
		Timing:    Timing{BeatTimeout: 30 * time.Second, RetryMin: 5 * time.Millisecond, RetryMax: 50 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	cl.Start()
	cl.Wait()
	var refused uint64
	for _, ep := range tr.raw {
		refused += ep.Dropped()
	}
	cl.Stop()
	if refused != 0 {
		t.Fatalf("%d sends refused by the sockets: a link-beat went out as an oversize datagram", refused)
	}
	perLink := 0
	for id, p := range protos {
		if got := cl.Node(id).Beat(); got != beats {
			t.Fatalf("node %d stopped at beat %d of %d", id, got, beats)
		}
		if p.bad != 0 {
			t.Fatalf("node %d was handed %d altered messages", id, p.bad)
		}
	}
	for b := uint64(0); b < beats; b++ {
		nodes := 0
		for _, p := range protos {
			if p.whole[b] >= n-f {
				nodes++
			}
		}
		if nodes < n-1 {
			t.Fatalf("beat %d: only %d nodes were handed a quorum's traffic whole", b, nodes)
		}
	}
	for _, s := range protos[0].Compose(0) {
		b, _ := wire.Encode(s.Msg)
		perLink += len(b)
	}
	if perLink < 150<<10 {
		t.Fatalf("test protocol sends %d bytes per link per beat, want > 150 KB", perLink)
	}
	// Each node-beat is n links of ceil(perLink/partBudget) frames, plus
	// retransmissions.
	parts := (perLink + partBudget - 1) / partBudget
	for id := 0; id < n; id++ {
		if got, min := tr.sends[id].Load(), int64(beats*n*parts); got < min {
			t.Fatalf("node %d sent %d datagrams, fewer than %d beats x %d links x %d parts", id, got, beats, n, parts)
		}
	}
}
