package main

import (
	"math/rand"
	"runtime"
	"time"

	"ssbyzclock/internal/coin"
	"ssbyzclock/internal/faultnet"
	"ssbyzclock/internal/field"
	"ssbyzclock/internal/gvss"
	"ssbyzclock/internal/net"
	"ssbyzclock/internal/pool"
	"ssbyzclock/internal/proto"
	"ssbyzclock/internal/sim"
	"ssbyzclock/internal/sscoin"
	"ssbyzclock/internal/wire"
)

// Kernel rungs: each layer's public entry points called directly, at
// the workloads' shapes (n=4 f=1 and n=16 f=5); the wire rungs run on
// the messages of one real n=4 beat, the size the networked workloads
// carry. They run at the end of every traced run and do not
// depend on the workload; the timed rungs (other transports, the naive
// fleet) belong to one workload each.

// timer measures a rung's per-call cost: the median over rungReps
// batches, each batch sized by calibration to last about rungBatch. In
// short mode it makes one call and never looks at the clock to decide
// anything.
type timer struct{ short bool }

const (
	rungReps  = 5
	rungBatch = 4 * time.Millisecond
)

func (t timer) nsPerCall(fn func()) float64 {
	fn() // warm: first-call allocations and table builds are set-up
	if t.short {
		t0 := time.Now()
		fn()
		return float64(time.Since(t0))
	}
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if time.Since(t0) >= rungBatch || n >= 1<<20 {
			break
		}
		n *= 2
	}
	per := make([]float64, rungReps)
	for r := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per[r] = float64(time.Since(t0)) / float64(n)
	}
	return median(per)
}

// alternate times two calls turn by turn and returns each one's
// median duration, so both see the same machine conditions.
func (t timer) alternate(a, b func()) (nsA, nsB float64) {
	reps := 64
	if t.short {
		reps = 1
	}
	as, bs := make([]float64, reps), make([]float64, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		a()
		t1 := time.Now()
		b()
		as[i], bs[i] = float64(t1.Sub(t0)), float64(time.Since(t1))
	}
	return median(as), median(bs)
}

// mallocsPerCall counts heap allocations of one call (median of a few,
// so a background GC allocation does not show).
func mallocsPerCall(fn func()) float64 {
	fn()
	var ms runtime.MemStats
	counts := make([]float64, 5)
	for i := range counts {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		fn()
		runtime.ReadMemStats(&ms)
		counts[i] = float64(ms.Mallocs - before)
	}
	return median(counts)
}

// shapes the rungs run at: the two cluster sizes the workloads use.
var rungShapes = []struct {
	tag  string
	n, f int
}{{"n4", 4, 1}, {"n16", 16, 5}}

func kernelRungs(m metrics, seed int64, short bool) {
	tm := timer{short: short}
	rng := rand.New(rand.NewSource(seed))
	randElems := func(k int) []field.Elem {
		out := make([]field.Elem, k)
		for i := range out {
			out[i] = field.Reduce(rng.Uint64())
		}
		return out
	}

	for _, sh := range rungShapes {
		n, f, w := sh.n, sh.f, sh.f+1

		// field: grid evaluation at the GVSS echo-compose shape — n² row
		// polynomials of f+1 coefficients at all n points.
		me := field.MultiEvalFor(n, f)
		nR := n * n
		coefT, dst := randElems(w*nR), make([]field.Elem, n*nR)
		ns := tm.nsPerCall(func() { me.EvalGridT(dst, coefT, w, nR) })
		m["field.eval_ns_per_term."+sh.tag] = ns / float64(n*nR*w)

		// field: block decode of one dealer's n targets from n senders,
		// clean and with f corrupted senders.
		xs := make([]field.Elem, n)
		for i := range xs {
			xs[i] = field.Elem(i + 1)
		}
		rows := make([][]field.Elem, n)
		for i := range rows {
			rows[i] = make([]field.Elem, n)
		}
		for t := 0; t < n; t++ {
			p := field.Poly(randElems(w))
			for i := range rows {
				rows[i][t] = p.Eval(xs[i])
			}
		}
		sd := field.NewSecretDecoder(me)
		outE, outOK := make([]field.Elem, n), make([]bool, n)
		ns = tm.nsPerCall(func() { sd.DecodeAt0Block(xs, rows, n, f, f, outE, outOK) })
		m["field.decode_us."+sh.tag] = ns / 1e3
		if sh.tag == "n16" {
			for i := 0; i < f; i++ {
				rows[2*i+1] = randElems(n)
			}
			ns = tm.nsPerCall(func() { sd.DecodeAt0Block(xs, rows, n, f, f, outE, outOK) })
			m["field.decode_err_us.n16"] = ns / 1e3
		}

		// gvss: one all-honest session, inboxes handed over directly.
		session := func() { gvssSession(n, f, seed) }
		m["gvss.session_us."+sh.tag] = tm.nsPerCall(session) / 1e3
		if sh.tag == "n16" {
			m["gvss.session_allocs.n16"] = mallocsPerCall(session)
		}
	}

	// field: the cross-tenant batcher against inline evaluation, 32
	// n=4 echo-shape jobs.
	{
		const jobs = 32
		me := field.MultiEvalFor(4, 1)
		coefs, dsts := make([][]field.Elem, jobs), make([][]field.Elem, jobs)
		for j := range coefs {
			coefs[j], dsts[j] = randElems(2*16), make([]field.Elem, 4*16)
		}
		inline := tm.nsPerCall(func() {
			for j := range coefs {
				me.EvalGridT(dsts[j], coefs[j], 2, 16)
			}
		})
		var eb field.EvalBatch
		batched := tm.nsPerCall(func() {
			for j := range coefs {
				eb.Enqueue(me, dsts[j], coefs[j], 2, 16, nil, 0)
			}
			eb.Flush()
		})
		m["field.evalbatch_vs_inline_ratio"] = batched / inline
	}

	// sim / sscoin / core: hot single engines at steady state. The n=16
	// pair is stepped alternately, so the difference between the full
	// stack and the coin alone is not a difference between two moments
	// of a noisy machine.
	hot := func(n, f int, factory sim.NodeFactory) *sim.Engine {
		e := sim.New(sim.Config{N: n, F: f, Seed: seed}, factory)
		e.Run(2 * warmBeats)
		return e
	}
	m["sim.hot_n4_beat_us"] = tm.nsPerCall(hot(4, 1, stackFactory).Step) / 1e3
	full := hot(16, 5, stackFactory)
	coinOnly := hot(16, 5, func(env proto.Env) proto.Protocol { return sscoin.New(env, coin.FMFactory{}) })
	fullNs, coinNs := tm.alternate(full.Step, coinOnly.Step)
	m["sscoin.beat_us.n16"] = coinNs / 1e3
	m["core.stack_self_us.n16"] = (fullNs - coinNs) / 1e3

	// pool: 32 leases of 64 elements and one recycle.
	var pn pool.Node
	m["pool.lease_recycle_ns"] = tm.nsPerCall(func() {
		for i := 0; i < 32; i++ {
			pn.Elems(64)
		}
		pn.Recycle()
	})

	sends := captureBeat(4, 1, seed)
	wireRungs(m, tm, sends)

	// faultnet: what a pass-through wrapper (no schedule, no loss) adds
	// to one Send of a real message frame.
	frame := wire.AppendFrame(nil, wire.Frame{Kind: wire.KindMsg, From: 0, Beat: 7, DeliveryBeat: 7, Payload: mustEncode(sends[0][0].Msg)})
	raw := discardEndpoint{}
	wrapped := faultnet.Wrap(raw, nil, faultnet.WrapConfig{FaultMarkers: true})
	direct := tm.nsPerCall(func() { raw.Send(1, frame) })
	m["faultnet.wrap_send_overhead_ns"] = tm.nsPerCall(func() { wrapped.Send(1, frame) }) - direct
}

// wireRungs times the codec on one real n=4 beat's messages (sends is
// captureBeat's per-node result).
func wireRungs(m metrics, tm timer, sends [][]proto.Send) {
	var mix []proto.Message
	for _, ss := range sends {
		for _, s := range ss {
			mix = append(mix, s.Msg)
		}
	}
	payloads := make([][]byte, len(mix))
	var bytes int
	for i, msg := range mix {
		payloads[i] = mustEncode(msg)
		bytes += len(payloads[i])
	}
	k := float64(len(mix))
	m["wire.bytes_per_msg"] = float64(bytes) / k
	var buf []byte
	m["wire.encode_ns_per_msg"] = tm.nsPerCall(func() {
		for _, msg := range mix {
			buf, _ = wire.AppendTo(buf[:0], msg)
		}
	}) / k
	m["wire.encode_allocs_per_msg"] = mallocsPerCall(func() {
		for _, msg := range mix {
			mustEncode(msg)
		}
	}) / k
	m["wire.decode_ns_per_msg"] = tm.nsPerCall(func() {
		for _, p := range payloads {
			if _, err := wire.Decode(p); err != nil {
				panic(err)
			}
		}
	}) / k
	m["wire.frame_roundtrip_ns"] = tm.nsPerCall(func() {
		for i, p := range payloads {
			buf = wire.AppendFrame(buf[:0], wire.Frame{Kind: wire.KindMsg, From: 1, Beat: 9, DeliveryBeat: 9, Seq: uint32(i), Payload: p})
			if _, err := wire.DecodeFrame(buf); err != nil {
				panic(err)
			}
		}
	}) / k

	// Batch frames: node 0's beat as one tenant's run, for 1 and 32
	// tenants per frame.
	var run []wire.BatchMsg
	for seq, s := range sends[0] {
		run = append(run, wire.BatchMsg{Seq: uint32(seq), Payload: mustEncode(s.Msg)})
	}
	for _, tc := range []struct {
		tag     string
		tenants int
	}{{"t1", 1}, {"t32", 32}} {
		runs := make([][]wire.BatchMsg, tc.tenants)
		for i := range runs {
			runs[i] = run
		}
		m["wire.batch_encode_ns_per_msg."+tc.tag] = tm.nsPerCall(func() {
			buf = wire.AppendBatchPayload(buf[:0], 0, runs)
			if err := wire.DecodeBatchPayload(buf, tc.tenants, func(int, uint32, []byte) {}); err != nil {
				panic(err)
			}
		}) / float64(tc.tenants*len(run))
	}
}

func mustEncode(m proto.Message) []byte {
	b, err := wire.Encode(m)
	if err != nil {
		panic(err) // every message of the shipped stack is registered
	}
	return b
}

// route expands per-node sends into per-node inboxes, broadcasts
// included — the engine's exchange phase without adversary or faults.
func route(n int, sends [][]proto.Send) [][]proto.Recv {
	inboxes := make([][]proto.Recv, n)
	for from, ss := range sends {
		for _, s := range ss {
			if s.To == proto.Broadcast {
				for to := 0; to < n; to++ {
					inboxes[to] = append(inboxes[to], proto.Recv{From: from, Msg: s.Msg})
				}
			} else if s.To >= 0 && s.To < n {
				inboxes[s.To] = append(inboxes[s.To], proto.Recv{From: from, Msg: s.Msg})
			}
		}
	}
	return inboxes
}

// gvssSession runs one all-honest share→echo→vote→recover session
// among n fresh instances.
func gvssSession(n, f int, seed int64) {
	ins := make([]*gvss.Instance, n)
	for i := range ins {
		env := proto.Env{N: n, F: f, ID: i, Rng: rand.New(rand.NewSource(seed + int64(i)))}
		ins[i] = gvss.New(env, env.Rng)
	}
	rounds := []struct {
		compose func(*gvss.Instance) []proto.Send
		deliver func(*gvss.Instance, []proto.Recv)
	}{
		{(*gvss.Instance).ComposeShare, (*gvss.Instance).DeliverShare},
		{(*gvss.Instance).ComposeEcho, (*gvss.Instance).DeliverEcho},
		{(*gvss.Instance).ComposeVote, (*gvss.Instance).DeliverVote},
		{(*gvss.Instance).ComposeRecover, (*gvss.Instance).DeliverRecover},
	}
	sends := make([][]proto.Send, n)
	for _, r := range rounds {
		for i, in := range ins {
			sends[i] = r.compose(in)
		}
		inboxes := route(n, sends)
		for i, in := range ins {
			r.deliver(in, inboxes[i])
		}
	}
}

// captureBeat drives n unpooled instances of the shipped stack to
// steady state and returns deep copies of one beat's sends, per node.
func captureBeat(n, f int, seed int64) [][]proto.Send {
	nodes := make([]proto.Protocol, n)
	for i := range nodes {
		nodes[i] = stackFactory(proto.Env{N: n, F: f, ID: i, Rng: sim.NodeRng(seed, i)})
	}
	sends := make([][]proto.Send, n)
	for beat := uint64(0); ; beat++ {
		for i, nd := range nodes {
			sends[i] = nd.Compose(beat)
		}
		if beat == 2*warmBeats {
			out := make([][]proto.Send, n)
			for i, ss := range sends {
				for _, s := range ss {
					c, err := proto.Clone(s.Msg)
					if err != nil {
						panic(err)
					}
					out[i] = append(out[i], proto.Send{To: s.To, Msg: c})
				}
			}
			return out
		}
		inboxes := route(n, sends)
		for i, nd := range nodes {
			nd.Deliver(beat, inboxes[i])
			if be, ok := nd.(proto.BeatEnder); ok {
				be.EndBeat()
			}
		}
	}
}

// discardEndpoint is a net.Endpoint that drops everything: the floor
// under faultnet.wrap_send_overhead_ns.
type discardEndpoint struct{}

func (discardEndpoint) ID() int                 { return 0 }
func (discardEndpoint) Send(int, []byte) error  { return nil }
func (discardEndpoint) Recv() <-chan net.Packet { return nil }
func (discardEndpoint) Dropped() uint64         { return 0 }
func (discardEndpoint) Close() error            { return nil }

// runRungs runs the kernel rungs and the workload's own timed rungs
// after a traced pass, then the metrics derived from both.
func runRungs(workload string, seed int64, b budget, out *outcome, rec *recorder) error {
	m := out.metrics
	s0 := rec.now()
	kernelRungs(m, seed, b.short)
	rec.add("rungs.kernel", 0, 0, s0, rec.now())

	hotN4Ms := m["sim.hot_n4_beat_us"] / 1e3
	switch workload {
	case onMulti:
		m["multi.vs_hot_engine_ratio"] = m["multi.ns_per_tenant_beat"] / 1e6 / hotN4Ms
	case onUDP, onLoss:
		spec := udpIdeal
		if workload == onLoss {
			spec = udpLossy
		}
		var err error
		for _, r := range []struct {
			name string
			kind transportKind
		}{{"net.chan_beats_per_s", overChan}, {"net.tcp_beats_per_s", overTCP}} {
			s0 := rec.now()
			if m[r.name], err = transportBeatsPerS(r.kind, spec, seed, b); err != nil {
				return err
			}
			rec.add("rungs."+r.name, 0, 0, s0, rec.now())
		}
		m["noderuntime.vs_engine_ratio"] = m["proc.beat_ms_p50"] / hotN4Ms
	}
	return nil
}
