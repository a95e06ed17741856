package noderuntime

import (
	"cmp"
	"encoding/binary"
	"slices"

	"ssbyzclock/internal/faultnet"
	"ssbyzclock/internal/pool"
	"ssbyzclock/internal/proto"
	"ssbyzclock/internal/wire"
)

// This file is the one implementation of the beat frame — the folded
// wire shape every loop in this package speaks — in its three stages:
// beatOut cuts a sender's composed beat into one frame per link,
// beatWindow buffers and deduplicates arriving frames and derives
// per-sender completeness from them, and inboxBuilder expands a beat's
// frames into canonical per-tenant inboxes.

const (
	// maxDatagram mirrors package net's datagram bound: a UDP endpoint
	// neither writes nor reads more than 64 KiB at once.
	maxDatagram = 64 << 10
	// partBudget is the payload at which a link-beat is cut into a
	// further part frame, leaving headroom under maxDatagram for the
	// frame, batch-window and UDP/IP headers. A constant, not a knob: at
	// every cluster size the repo runs (n <= 32, under 10 KB per link) a
	// link-beat is one part. A single message larger than the budget
	// cannot be cut and travels as an oversize part of its own.
	partBudget = maxDatagram - 4<<10
	// msgOverhead and runOverhead bound what a batch payload spends
	// around one message (seq and length varints) and one tenant run
	// (its message count).
	msgOverhead = 2 * binary.MaxVarintLen32
	runOverhead = 3
	// frameOverhead bounds a frame header plus a batch window header.
	frameOverhead = 48
)

// outMsg is one composed message, already encoded into beatOut.enc.
type outMsg struct {
	tenant   int
	to       int // a node id, or proto.Broadcast
	seq      uint32
	off, end int
}

// linkFrame is one encoded frame and the peer it is addressed to.
type linkFrame struct {
	to   int
	data []byte
}

// framePart is one frame of a beat before encoding: part seq of parts of
// peer to's link-beat, holding beatOut.link[lo:hi] once link holds that
// peer's messages, in need bytes.
type framePart struct {
	to, lo, hi int
	seq, parts uint16
	need       int
}

// beatOut is the send side of one beat: every composed message is
// encoded exactly once (a broadcast's bytes are shared by all links),
// then each link's messages are gathered into one frame. The encode
// buffer and scratch are reused across beats; the frames are carved from
// one fresh buffer per beat, because net.Endpoint's contract makes a
// frame read-only from the moment it is sent, and a node resends the
// previous beat's frames while the current beat's are out.
type beatOut struct {
	n     int // cluster size: destinations outside [0, n) are dropped
	enc   []byte
	msgs  []outMsg // tenant-major, each tenant in compose order
	link  []outMsg // one peer's messages (gather)
	parts []framePart
	runs  [][]wire.BatchMsg
}

func (o *beatOut) reset() { o.enc, o.msgs = o.enc[:0], o.msgs[:0] }

// add encodes m for tenant's link(s) to. Tenants must be added in
// ascending order. A malformed destination is dropped, as in sim, and
// so is a type the codec does not know: it cannot cross a wire.
func (o *beatOut) add(tenant, to int, seq uint32, m proto.Message) {
	if to != proto.Broadcast && (to < 0 || to >= o.n) {
		return
	}
	start := len(o.enc)
	enc, err := wire.AppendTo(o.enc, m)
	if err != nil {
		o.enc = enc[:start]
		return
	}
	o.enc = enc
	o.msgs = append(o.msgs, outMsg{tenant: tenant, to: to, seq: seq, off: start, end: len(enc)})
}

// gather sets link to peer to's messages, in compose order.
func (o *beatOut) gather(to int) {
	o.link = o.link[:0]
	for _, m := range o.msgs {
		if m.to == to || m.to == proto.Broadcast {
			o.link = append(o.link, m)
		}
	}
}

// linkFrames appends the frames carrying this beat's messages for every
// peer not marked in skip (nil skips none), peer by peer: one per peer,
// unless the link-beat outgrows partBudget, and one even when there is
// nothing to say — the frame's arrival is the beat marker. hdr supplies
// Kind, From, Beat and DeliveryBeat. Past wire.MaxFrameParts the last
// part takes the remainder whole, which is the pre-fold behaviour: fine
// on stream and in-process transports, refused by a datagram socket.
//
// The frames are carved with full slice expressions from one buffer
// sized to the sum of their needs: one allocation per beat, and no frame
// can grow into its neighbour.
func (o *beatOut) linkFrames(dst []linkFrame, hdr wire.Frame, skip []bool) []linkFrame {
	o.parts = o.parts[:0]
	total := 0
	for to := 0; to < o.n; to++ {
		if skip != nil && skip[to] {
			continue
		}
		o.gather(to)
		first, lo, size := len(o.parts), 0, 0
		for i, m := range o.link {
			own := m.end - m.off + msgOverhead + runOverhead
			cost := own
			if size > 0 { // runs the part's tenant window grows by, empty ones included
				cost += (m.tenant - o.link[i-1].tenant) * runOverhead
			}
			if size > 0 && size+cost > partBudget && len(o.parts)-first < wire.MaxFrameParts-1 {
				total += o.cut(to, lo, i, len(o.parts)-first)
				lo, size, cost = i, 0, own
			}
			size += cost
		}
		total += o.cut(to, lo, len(o.link), len(o.parts)-first)
		for p := first; p < len(o.parts); p++ {
			o.parts[p].parts = uint16(len(o.parts) - first)
		}
	}

	buf, off := make([]byte, 0, total), 0
	for i, p := range o.parts {
		if i == 0 || p.to != o.parts[i-1].to {
			o.gather(p.to) // the parts are peer by peer
		}
		part := o.link[p.lo:p.hi]
		first := 0
		if len(part) > 0 {
			first = part[0].tenant
		}
		o.runs = o.runs[:0]
		for _, m := range part {
			for len(o.runs) <= m.tenant-first {
				if len(o.runs) < cap(o.runs) {
					o.runs = o.runs[:len(o.runs)+1]
					o.runs[len(o.runs)-1] = o.runs[len(o.runs)-1][:0]
				} else {
					o.runs = append(o.runs, nil)
				}
			}
			k := m.tenant - first
			o.runs[k] = append(o.runs[k], wire.BatchMsg{Seq: m.seq, Payload: o.enc[m.off:m.end]})
		}
		hdr.Seq, hdr.Parts = uint32(p.seq), p.parts
		// A frame's payload runs to its end, so the batch payload is
		// appended straight after the header instead of being built apart
		// and copied in.
		data := wire.AppendFrame(buf[off:off:off+p.need], hdr)
		data = wire.AppendBatchPayload(data, first, o.runs)
		off += p.need
		dst = append(dst, linkFrame{to: p.to, data: data})
	}
	return dst
}

// cut records part seq of peer to's link-beat, o.link[lo:hi], and
// returns the bytes it needs: the frame header plus every message and
// tenant run of its window.
func (o *beatOut) cut(to, lo, hi, seq int) int {
	need := frameOverhead
	if hi > lo {
		need += (o.link[hi-1].tenant - o.link[lo].tenant + 1) * runOverhead
	}
	for _, m := range o.link[lo:hi] {
		need += m.end - m.off + msgOverhead
	}
	o.parts = append(o.parts, framePart{to: to, lo: lo, hi: hi, seq: uint16(seq), need: need})
	return need
}

// beatSlot is what a beatWindow holds for one beat.
type beatSlot struct {
	// due[from] are from's frames whose messages are due this beat
	// (DeliveryBeat), in arrival order. Payloads alias the transport
	// packets, which the receiver owns.
	due [][]wire.Frame
	// parts[from] and got[from] track the original (Copy 0) frames from
	// SENT at this beat (Beat): the part count the first of them
	// declared, and how many parts have arrived. complete counts the
	// senders whose got has reached parts — whose beat is wholly here.
	parts, got []uint16
	complete   int
}

// beatWindow buffers one endpoint's received frames for the beats in
// [cur, cur+Window], where cur is the owner's current beat, as a ring
// of slots (no per-beat allocation). It holds the runtime's whole
// receive-side discipline:
//
//   - dedup: the key is (From, Beat, Seq, Copy) and the first arrival
//     wins, so retransmissions — and a second, different frame claiming
//     the same key — are ignored, while a fault-injected Copy+1
//     delivers its messages again;
//   - completeness: a sender's beat r is complete when all Parts of its
//     original (Copy 0) beat-r frame have arrived, counted at Beat even
//     if the messages inside are due later (DeliveryBeat) — frame
//     arrival is the beat marker, and a fault wrapper sends injected
//     copies ahead of the original so none can straggle in after the
//     receiver has moved on;
//   - bounds: beats outside the window and more than maxPerSender
//     frames per (delivery beat, sender) are dropped, so memory stays
//     constant under partitions and floods.
type beatWindow struct {
	slots [Window + 1]beatSlot
}

func newBeatWindow(n int) *beatWindow {
	w := &beatWindow{}
	for i := range w.slots {
		w.slots[i] = beatSlot{due: make([][]wire.Frame, n), parts: make([]uint16, n), got: make([]uint16, n)}
	}
	return w
}

func (w *beatWindow) slot(beat uint64) *beatSlot {
	return &w.slots[beat%uint64(len(w.slots))]
}

// add buffers f, whose From the caller has checked against n.
func (w *beatWindow) add(cur uint64, f wire.Frame) {
	if f.DeliveryBeat < cur || f.DeliveryBeat > cur+Window {
		return
	}
	var sent *beatSlot // nil for a late arrival: its beat is already behind us
	if f.Beat >= cur {
		sent = w.slot(f.Beat)
		if sent.got[f.From] > 0 && sent.parts[f.From] != f.Parts {
			return // contradicts the part count this sender first declared
		}
	}
	due := w.slot(f.DeliveryBeat)
	fs := due.due[f.From]
	for i := range fs {
		if fs[i].Beat == f.Beat && fs[i].Seq == f.Seq && fs[i].Copy == f.Copy {
			return
		}
	}
	if len(fs) >= maxPerSender {
		return // flood
	}
	due.due[f.From] = append(fs, f)
	if sent != nil && f.Copy == 0 {
		sent.parts[f.From] = f.Parts
		sent.got[f.From]++
		if sent.got[f.From] == f.Parts {
			sent.complete++
		}
	}
}

// drop forgets beat, freeing its slot for beat+Window+1.
func (w *beatWindow) drop(beat uint64) {
	s := w.slot(beat)
	for from, fs := range s.due {
		clear(fs) // release the packets
		s.due[from] = fs[:0]
	}
	clear(s.parts)
	clear(s.got)
	s.complete = 0
}

// eachMsg calls fn for every message of every frame due in the slot,
// sender by sender, having first set *cur to the frame it came in. A
// malformed batch contributes nothing: DecodeBatchPayload validates the
// whole payload before its first callback, and its error says no more
// than that.
func (s *beatSlot) eachMsg(tenants int, cur *wire.Frame, fn func(tenant int, seq uint32, msg []byte)) {
	for _, fs := range s.due {
		for _, f := range fs {
			*cur = f
			_ = wire.DecodeBatchPayload(f.Payload, tenants, fn)
		}
	}
}

// msgRec is one message out of a frame, with the frame-level ordering
// metadata every message of the frame shares.
type msgRec struct {
	from    int
	beat    uint64
	seq     uint32
	copy    uint8
	payload []byte
}

// inboxBuilder expands a beat's due frames into per-tenant inboxes in
// the canonical order shared with sim.Engine — late arrivals first by
// (send beat, honest-before-faulty, sender, seq), then current-beat
// honest senders by (sender, seq), then the adversary's by its global
// seq — and applies the schedule's reorder permutation. All scratch is
// reused: an inbox is valid until the next call, which is all
// proto.Protocol.Deliver asks for, and its messages are decoded into
// the node's beat arena, valid until release.
type inboxBuilder struct {
	id     int
	faulty []bool
	links  faultnet.Schedule
	dec    wire.Decoder

	recs  [][]msgRec // per tenant
	frame wire.Frame // the frame being expanded
	onMsg func(tenant int, seq uint32, msg []byte)
	order func(x, y msgRec) int
	inbox []proto.Recv
	perm  []proto.Recv
}

func newInboxBuilder(id, tenants int, faulty []bool, links faultnet.Schedule, pl *pool.Node) *inboxBuilder {
	b := &inboxBuilder{id: id, faulty: faulty, links: links, dec: wire.Decoder{Pool: pl}, recs: make([][]msgRec, tenants)}
	b.onMsg = func(tenant int, seq uint32, msg []byte) {
		f := &b.frame
		b.recs[tenant] = append(b.recs[tenant], msgRec{from: f.From, beat: f.Beat, seq: seq, copy: f.Copy, payload: msg})
	}
	b.order = func(x, y msgRec) int {
		if x.beat != y.beat {
			return cmp.Compare(x.beat, y.beat)
		}
		xb, yb := b.isBad(x.from), b.isBad(y.from)
		if xb != yb {
			if yb {
				return -1
			}
			return 1
		}
		if !xb && x.from != y.from {
			return cmp.Compare(x.from, y.from)
		}
		if x.seq != y.seq {
			return cmp.Compare(x.seq, y.seq)
		}
		return cmp.Compare(x.copy, y.copy)
	}
	return b
}

func (b *inboxBuilder) isBad(i int) bool {
	return i >= 0 && i < len(b.faulty) && b.faulty[i]
}

// expand splits the slot's frames into per-tenant message lists.
func (b *inboxBuilder) expand(s *beatSlot) {
	for t := range b.recs {
		b.recs[t] = b.recs[t][:0]
	}
	s.eachMsg(len(b.recs), &b.frame, b.onMsg)
}

// release ends the beat's inboxes: it resets the decode arena — every
// tenant's Deliver and EndBeat are done, so the beat's messages are dead
// — and drops every reference the last expand left in the scratch
// (through the records' payloads, the packets themselves), so a node
// waiting out its next beat holds capacity, not a beat's worth of
// garbage per tenant.
func (b *inboxBuilder) release() {
	b.dec.Reset()
	for _, recs := range b.recs {
		clear(recs)
	}
	clear(b.inbox[:cap(b.inbox)]) // shared by tenants of differing lengths
	clear(b.perm[:cap(b.perm)])
}

// tenant returns tenant t's inbox for beat r from the last expand.
func (b *inboxBuilder) tenant(t int, r uint64) []proto.Recv {
	recs := b.recs[t]
	slices.SortStableFunc(recs, b.order)
	b.inbox = b.inbox[:0]
	for _, rec := range recs {
		m, err := b.dec.Decode(rec.payload)
		if err != nil {
			continue // Byzantine garbage: hardened decode drops it
		}
		b.inbox = append(b.inbox, proto.Recv{From: rec.from, Msg: m})
	}
	if b.links != nil && len(b.inbox) > 1 {
		if seed, ok := b.links.Shuffle(r, b.id); ok {
			b.perm = b.perm[:0]
			for _, j := range faultnet.ShuffleOrder(seed, len(b.inbox)) {
				b.perm = append(b.perm, b.inbox[j])
			}
			return b.perm
		}
	}
	return b.inbox
}
