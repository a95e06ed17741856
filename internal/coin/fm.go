package coin

import (
	"slices"

	"ssbyzclock/internal/field"
	"ssbyzclock/internal/gvss"
	"ssbyzclock/internal/proto"
)

// FMRounds is the round count of the Feldman–Micali-style coin: the three
// GVSS sharing rounds, the accept-set round, and the recover round.
const FMRounds = 5

// AcceptMsg is a node's round-4 broadcast: the set of dealers whose
// dealing *to this node* it graded high. The node's lottery ticket is the
// sum of those dealers' contributions, which become public only in the
// next (recover) round — so accept sets are committed while tickets are
// still unpredictable, the property Lemma 4's independence argument needs.
type AcceptMsg struct {
	Set []uint16
}

// Kind implements proto.Message.
func (AcceptMsg) Kind() string { return "coin.accept" }

// AsAccept reports whether m is an accept message, accepting the value
// form (adversaries, tests) and the pointer form (the flipper's pooled
// compose path) alike.
func AsAccept(m proto.Message) (AcceptMsg, bool) {
	switch v := m.(type) {
	case AcceptMsg:
		return v, true
	case *AcceptMsg:
		return *v, true
	}
	return AcceptMsg{}, false
}

// FMFactory creates Feldman–Micali-style coin instances.
type FMFactory struct{}

// Rounds implements Factory.
func (FMFactory) Rounds() int { return FMRounds }

// New implements Factory.
func (FMFactory) New(env proto.Env, _ uint64) Flipper {
	c := &fmFlipper{
		env:         env,
		session:     gvss.New(env, env.Rng),
		accepts:     make([][]uint16, env.N),
		acceptsFlat: make([]uint16, env.N*env.N),
		acceptSet:   make([]uint16, 0, env.N),
	}
	c.acceptSends = []proto.Send{{To: proto.Broadcast, Msg: &c.acceptMsg}}
	return c
}

// Renew implements Recycler: a flipper that just exited the coin pipeline
// is re-initialized in place — fresh dealer secrets, cleared session and
// accept state — reusing all of its allocations. It draws from env.Rng
// exactly as New does, so recycling never changes a seeded run.
func (f FMFactory) Renew(old Flipper, env proto.Env, beat uint64) Flipper {
	c, ok := old.(*fmFlipper)
	if !ok || !c.session.Reset(env, env.Rng) {
		return f.New(env, beat)
	}
	c.env = env
	for i := range c.accepts {
		c.accepts[i] = nil
	}
	c.out = 0
	c.word = 0
	c.done = false
	return c
}

// fmFlipper runs one coin flip:
//
//	round 1-3  GVSS share / echo / vote for all n dealers, each dealing a
//	           vector of n secrets (contributions to each node's ticket)
//	round 4    broadcast accept set: dealers I graded high for my ticket
//	round 5    GVSS recover; then compute every node's ticket as the sum
//	           of its accepted dealers' contributions, elect the node with
//	           the minimum ticket as leader, and output the parity of the
//	           leader's ticket
//
// Properties (measured in experiment E2; the reasoning follows):
// honest nodes' tickets are identical at every honest observer, uniform,
// and unpredictable before round 5; a Byzantine node cannot control its
// own ticket because it contains at least f+1 honest contributions. All
// honest nodes therefore elect the same leader — and output the same
// parity — at least whenever the global minimum ticket belongs to an
// honest node, which happens with constant probability >= (n-f)/n.
type fmFlipper struct {
	env     proto.Env
	session *gvss.Instance
	accepts [][]uint16 // [node] accept set, nil if none/invalid received
	// acceptsFlat backs the accept sets (n slots of up to n dealers each),
	// recycled with the flipper so steady-state accept delivery does not
	// allocate.
	acceptsFlat []uint16
	// acceptMsg/acceptSends/acceptSet are the persistent round-4 message
	// slot (see gvss.Instance's message slots): the broadcast send and its
	// boxed *AcceptMsg never change, and the set is rebuilt in place each
	// session — legal because messages live only for their beat.
	acceptMsg   AcceptMsg
	acceptSends []proto.Send
	acceptSet   []uint16
	out         byte
	word        uint64
	done        bool
}

// Rounds implements Flipper.
func (c *fmFlipper) Rounds() int { return FMRounds }

// Compose implements Flipper.
func (c *fmFlipper) Compose(round int) []proto.Send {
	switch round {
	case 1:
		return c.session.ComposeShare()
	case 2:
		return c.session.ComposeEcho()
	case 3:
		return c.session.ComposeVote()
	case 4:
		set := c.acceptSet[:0]
		for d := 0; d < c.env.N; d++ {
			if c.session.Grade(d, c.env.ID) == gvss.GradeHigh {
				set = append(set, uint16(d))
			}
		}
		c.acceptSet = set
		c.acceptMsg.Set = set
		return c.acceptSends
	case 5:
		return c.session.ComposeRecover()
	default:
		return nil
	}
}

// Deliver implements Flipper.
func (c *fmFlipper) Deliver(round int, inbox []proto.Recv) {
	switch round {
	case 1:
		c.session.DeliverShare(inbox)
	case 2:
		c.session.DeliverEcho(inbox)
	case 3:
		c.session.DeliverVote(inbox)
	case 4:
		c.deliverAccept(inbox)
	case 5:
		c.session.DeliverRecover(inbox)
		c.computeOutput()
	}
}

func (c *fmFlipper) deliverAccept(inbox []proto.Recv) {
	n := c.env.N
	for _, r := range inbox {
		m, ok := AsAccept(r.Msg)
		if !ok || r.From < 0 || r.From >= n || c.accepts[r.From] != nil {
			continue
		}
		from := r.From
		set := dedupSetInto(c.acceptsFlat[from*n:from*n:(from+1)*n], m.Set, n)
		if len(set) < c.env.Quorum() {
			// An accept set smaller than n-f is impossible for an honest
			// node (all n-f honest dealers' dealings reach grade high), so
			// reject it: small sets would let a Byzantine node name a
			// colluding dealer set whose contributions it already knows,
			// giving it control over its own ticket.
			continue
		}
		c.accepts[r.From] = set
	}
}

func (c *fmFlipper) computeOutput() {
	n := c.env.N
	type ticket struct {
		node int
		val  field.Elem
	}
	best := ticket{node: -1}
	for j := 0; j < n; j++ {
		set := c.accepts[j]
		if set == nil {
			continue
		}
		valid := true
		var sum field.Elem
		for _, d := range set {
			if c.session.Grade(int(d), j) < gvss.GradeLow {
				// The claimed dealer is worthless in my view: an honest j
				// graded it high, which forces grade >= low everywhere, so
				// this claim exposes j as Byzantine.
				valid = false
				break
			}
			if v, ok := c.session.Recovered(int(d), j); ok {
				sum = field.Add(sum, v)
			}
			// Unrecoverable dealings contribute the deterministic default
			// 0; this can only happen for Byzantine-dealt contributions.
		}
		if !valid {
			continue
		}
		if best.node < 0 || sum < best.val || (sum == best.val && j < best.node) {
			best = ticket{node: j, val: sum}
		}
	}
	if best.node >= 0 {
		c.out = byte(best.val & 1)
		// The widened output for shared-pipeline derivation: the leader's
		// full ticket, mixed so its ~31 bits spread over the word. Agrees
		// across honest observers exactly when the elected leader (and
		// hence the parity bit) does.
		c.word = splitmix64(uint64(best.val))
	} else {
		c.out = 0
		c.word = 0
	}
	c.done = true
}

// Output implements Flipper.
func (c *fmFlipper) Output() byte {
	if !c.done {
		return 0
	}
	return c.out
}

// OutputWord implements WordFlipper: the mixed leader ticket.
func (c *fmFlipper) OutputWord() uint64 {
	if !c.done {
		return 0
	}
	return c.word
}

// dedupSet validates, deduplicates and sorts a claimed accept set,
// dropping out-of-range dealers. Cluster sizes up to 64 dedup via a
// bitmask; only larger (hypothetical) clusters pay for a map.
func dedupSet(in []uint16, n int) []uint16 {
	return dedupSetInto(make([]uint16, 0, n), in, n)
}

// dedupSetInto is dedupSet appending into caller-owned storage; the
// deduplicated output holds at most n entries, so capacity n always
// suffices and the hot caller passes a recycled full-capacity slot.
func dedupSetInto(out []uint16, in []uint16, n int) []uint16 {
	if n <= 64 {
		var seen uint64
		for _, d := range in {
			if int(d) < n && seen&(1<<d) == 0 {
				seen |= 1 << d
				out = append(out, d)
			}
		}
	} else {
		seen := make(map[uint16]bool, len(in))
		for _, d := range in {
			if int(d) < n && !seen[d] {
				seen[d] = true
				out = append(out, d)
			}
		}
	}
	slices.Sort(out)
	return out
}
