package noderuntime

import (
	"cmp"
	"slices"
	"sync"

	"ssbyzclock/internal/adversary"
	"ssbyzclock/internal/net"
	"ssbyzclock/internal/pool"
	"ssbyzclock/internal/proto"
	"ssbyzclock/internal/wire"
)

// AdvHost hosts the adversary in a Lockstep cluster: it owns every
// faulty node's endpoint and, for each tenant, that tenant's faulty
// honest-copy instances plus its own adversary instance, and
// reconstructs the engine's rushing semantics from the wire alone. The
// sequencing falls out of the frame discipline — the host acts only
// once every honest node's beat frame has arrived on every faulty
// endpoint (so each adversary has seen all honest traffic it is
// entitled to: rushing, one barrier gating all tenants at once); the
// faulty nodes' own frames go out after that, one per (faulty id,
// honest destination) with every message stamped with its tenant's
// global adversary sequence, and their arrival is what releases the
// honest nodes into Deliver. No clock, no extra synchronization.
//
// Real-mode clusters do not use AdvHost: there the faulty ids run as
// ordinary (passive) nodes, since an asynchronous rushing adversary has
// no faithful engine counterpart to be checked against.
type AdvHost struct {
	cfg   AdvHostConfig
	isBad []bool
	epOf  []int // node id -> index in FaultyIDs (faulty ids only)

	cur  uint64
	wins []*beatWindow // per faulty endpoint: the honest frames it received
	outs []beatOut     // per faulty id: this beat's messages toward honest nodes
	// recs[t] is scratch for tenant t's intercepted messages; frame and
	// badIdx are the frame being expanded into it by onMsg.
	recs   [][]interceptRec
	frame  wire.Frame
	badIdx int
	onMsg  func(tenant int, seq uint32, msg []byte)
	// dec decodes every tenant's intercepts into leases from the first
	// faulty id's pool, which the loop recycles with the others before
	// the next beat's Compose.
	dec wire.Decoder

	merged chan tagged
	done   chan struct{}
	stop   sync.Once
	wg     sync.WaitGroup
}

// AdvHostConfig wires an AdvHost. Endpoint-indexed slices are parallel
// to FaultyIDs, mirroring sim's intercept ordering.
type AdvHostConfig struct {
	N, F    int
	Tenants int
	// FaultyIDs in engine order (ascending by default). Endpoints is
	// parallel to it.
	FaultyIDs []int
	Endpoints []net.Endpoint
	// Instances[t][k] is tenant t's honest-copy instance for faulty id
	// FaultyIDs[k]; Advs[t] is tenant t's adversary.
	Instances [][]proto.Protocol
	Advs      []adversary.Adversary
	// Pools are the faulty ids' lease pools, behind the faulty instances'
	// Compose and Deliver and (the first) the decoded intercepts, each
	// recycled once per beat, before Compose; nil when pooling is off.
	Pools    []*pool.Node
	MaxBeats uint64
}

// interceptRec is one honest message captured on a faulty endpoint.
type interceptRec struct {
	from    int
	seq     uint32
	badIdx  int // which faulty endpoint it arrived on
	payload []byte
}

// tagged is one packet annotated with the faulty endpoint it arrived
// on; forwarder goroutines merge all endpoints onto one channel so the
// host loop has a single receive point.
type tagged struct {
	k int
	p net.Packet
}

// NewAdvHost builds the host; Start launches its loop.
func NewAdvHost(cfg AdvHostConfig) *AdvHost {
	h := &AdvHost{
		cfg:   cfg,
		isBad: make([]bool, cfg.N),
		epOf:  make([]int, cfg.N),
		wins:  make([]*beatWindow, cfg.F),
		outs:  make([]beatOut, cfg.F),
		recs:  make([][]interceptRec, cfg.Tenants),
		done:  make(chan struct{}),
	}
	for k, id := range cfg.FaultyIDs {
		h.isBad[id], h.epOf[id] = true, k
		h.wins[k] = newBeatWindow(cfg.N)
		h.outs[k].n = cfg.N
	}
	if len(cfg.Pools) > 0 {
		h.dec.Pool = cfg.Pools[0]
	}
	h.onMsg = func(tenant int, seq uint32, msg []byte) {
		h.recs[tenant] = append(h.recs[tenant], interceptRec{from: h.frame.From, seq: seq, badIdx: h.badIdx, payload: msg})
	}
	return h
}

// Start launches the host loop and one forwarder per faulty endpoint.
func (h *AdvHost) Start() {
	h.merged = make(chan tagged, 64)
	for k, ep := range h.cfg.Endpoints {
		h.wg.Add(1)
		go h.forward(k, ep.Recv())
	}
	h.wg.Add(1)
	go h.run()
}

func (h *AdvHost) forward(k int, ch <-chan net.Packet) {
	defer h.wg.Done()
	for {
		select {
		case <-h.done:
			return
		case p, ok := <-ch:
			if !ok {
				return
			}
			select {
			case <-h.done:
				return
			case h.merged <- tagged{k: k, p: p}:
			}
		}
	}
}

// Stop asks the loop to exit; Wait joins it.
func (h *AdvHost) Stop() { h.stop.Do(func() { close(h.done) }) }

// Wait blocks until the loop has exited.
func (h *AdvHost) Wait() { h.wg.Wait() }

func (h *AdvHost) run() {
	defer h.wg.Done()
	defer h.Stop() // a natural MaxBeats exit must release the forwarders too
	T := h.cfg.Tenants
	for h.cfg.MaxBeats == 0 || h.cur < h.cfg.MaxBeats {
		r := h.cur
		// The previous beat's messages — composed, decoded and delivered —
		// are dead.
		for _, p := range h.cfg.Pools {
			p.Recycle()
		}
		// Every tenant's honest-copy defaults, which its adversary may
		// forward or replace (sim's interceptPhase, verbatim).
		defaults := make([][]adversary.Sends, T)
		for t := 0; t < T; t++ {
			defaults[t] = make([]adversary.Sends, h.cfg.F)
			for k, id := range h.cfg.FaultyIDs {
				defaults[t][k] = adversary.Sends{From: id, Out: h.cfg.Instances[t][k].Compose(r)}
			}
		}
		// Rushing barrier: every honest frame for r, on every endpoint.
		if !h.collect(r) {
			return
		}
		h.expand(r)
		for k := range h.outs {
			h.outs[k].reset()
		}
		perDest := make([][][]proto.Recv, T) // [tenant][k] inbox
		for t := 0; t < T; t++ {
			var visible []adversary.Intercept
			visible, perDest[t] = h.visibleSet(t)
			h.emit(t, h.cfg.Advs[t].Act(r, defaults[t], visible), perDest[t])
		}
		// The faulty ids' frames: they release the honest nodes into
		// Deliver.
		var frames []linkFrame
		for k, id := range h.cfg.FaultyIDs {
			hdr := wire.Frame{Kind: wire.KindBatch, From: id, Beat: r, DeliveryBeat: r}
			frames = h.outs[k].linkFrames(frames[:0], hdr, h.isBad)
			for _, lf := range frames {
				h.cfg.Endpoints[k].Send(lf.to, lf.data)
			}
		}
		for t := 0; t < T; t++ {
			for k, inst := range h.cfg.Instances[t] {
				inst.Deliver(r, perDest[t][k])
			}
		}
		for _, w := range h.wins {
			w.drop(r)
		}
		h.cur++
	}
}

// collect drains the merged endpoint stream until every honest node's
// beat-r frame is complete on all faulty endpoints, buffering early
// frames for future beats as it goes.
func (h *AdvHost) collect(r uint64) bool {
	honest := h.cfg.N - h.cfg.F
	complete := func() bool {
		for _, w := range h.wins {
			if w.slot(r).complete < honest {
				return false
			}
		}
		return true
	}
	for !complete() {
		select {
		case <-h.done:
			return false
		case tp := <-h.merged:
			h.ingest(tp.k, tp.p)
		}
	}
	return true
}

// ingest buffers one packet from faulty endpoint k: honest senders'
// beat frames only (the adversary's own traffic never loops back).
func (h *AdvHost) ingest(k int, p net.Packet) {
	f, err := wire.DecodeFrame(p.Data)
	if err != nil || f.Kind != wire.KindBatch || f.From >= h.cfg.N || h.isBad[f.From] || f.From != p.From {
		return
	}
	h.wins[k].add(h.cur, f)
}

// expand splits beat r's intercepted frames into per-tenant message
// lists, once for all tenants.
func (h *AdvHost) expand(r uint64) {
	for t := range h.recs {
		h.recs[t] = h.recs[t][:0]
	}
	for k, w := range h.wins {
		h.badIdx = k
		w.slot(r).eachMsg(h.cfg.Tenants, &h.frame, h.onMsg)
	}
}

// visibleSet decodes tenant t's intercepts, into pool leases, as its
// adversary's visible list — ordered exactly as sim's
// interceptPhase builds it: honest sender ascending, compose seq, then
// faulty destination in faulty-list order — and, sharing the same
// decoded values, each faulty instance's honest inbox prefix in (sender,
// seq) order.
func (h *AdvHost) visibleSet(t int) ([]adversary.Intercept, [][]proto.Recv) {
	recs := h.recs[t]
	slices.SortStableFunc(recs, func(x, y interceptRec) int {
		return cmp.Or(cmp.Compare(x.from, y.from), cmp.Compare(x.seq, y.seq), cmp.Compare(x.badIdx, y.badIdx))
	})
	visible := make([]adversary.Intercept, 0, len(recs))
	perDest := make([][]proto.Recv, h.cfg.F)
	for _, rec := range recs {
		m, err := h.dec.Decode(rec.payload)
		if err != nil {
			continue
		}
		visible = append(visible, adversary.Intercept{From: rec.from, To: h.cfg.FaultyIDs[rec.badIdx], Msg: m})
		perDest[rec.badIdx] = append(perDest[rec.badIdx], proto.Recv{From: rec.from, Msg: m})
	}
	return visible, perDest
}

// emit routes tenant t's adversary sends: messages toward honest nodes
// join the sending faulty id's outgoing beat (stamped with the tenant's
// global adversary sequence, as sim stamps its own), messages toward
// faulty ids go straight into those instances' inboxes.
func (h *AdvHost) emit(t int, sends []adversary.Sends, perDest [][]proto.Recv) {
	advSeq := uint32(0)
	for _, fs := range sends {
		if fs.From < 0 || fs.From >= h.cfg.N || !h.isBad[fs.From] {
			continue // identity cannot be forged (Definition 2.2)
		}
		for _, s := range fs.Out {
			seq := advSeq
			advSeq++
			for k, id := range h.cfg.FaultyIDs {
				if s.To == id || s.To == proto.Broadcast {
					perDest[k] = append(perDest[k], proto.Recv{From: fs.From, Msg: s.Msg})
				}
			}
			if s.To == proto.Broadcast || (s.To >= 0 && s.To < h.cfg.N && !h.isBad[s.To]) {
				h.outs[h.epOf[fs.From]].add(t, s.To, seq, s.Msg)
			}
		}
	}
}
