// Package smr composes the paper's asynchronous machinery into repeated
// asynchronous consensus — a self-stabilizing replicated log. The paper's
// synchronous sections take Repeated Consensus as the canonical
// non-terminating problem ("a nonterminating protocol for Repeated
// Consensus constructed by iterating a terminating protocol for a single
// Consensus", §2); this package is the §3 analogue: slot s of the log is
// one instance of the stabilizing ◊S-consensus, and the machinery that
// carries a process from slot to slot is itself built from the paper's
// self-stabilization toolkit:
//
//   - The log is a per-slot write-many decision lattice, gossiped
//     continuously (the §3 decision-register rule, one register per slot).
//     All corrupted log entries are just decisions — they merge like any
//     other, so agreement and progress survive arbitrary corruption, with
//     validity sacrificed for slots minted by the corruption (exactly the
//     trade §3 makes for single-shot decisions).
//
//   - The slot cursor is DERIVED state: a replica works on the slot one
//     past its decided frontier. The retained log is a hole-free window
//     of consecutive decided slots, so the frontier is the top of that
//     window and every slot below it is decided. A corrupted cursor
//     cannot strand a replica because the cursor is recomputed from the
//     window on every step.
//
//   - Slot instances are the ctcons state machine (re-send, round
//     adoption, sanitization) with every message wrapped in its slot
//     number; instance state for any slot other than the current one is
//     discarded, which is the per-slot version of "abandon all work of
//     the current phase".
//
// The retained log IS the gossip window: every replica keeps and
// re-announces its most recent GossipWindow decided slots, in a ring
// indexed by slot, and older ones fall off its low end. Everything
// retained is therefore continuously reconciled by the lattice gossip —
// a corrupted entry that disagrees with a peer's is overwritten by the
// join within one round-trip, and no stale conflict can hide below the
// window. Applications that need the full log add
// snapshotting/state transfer on top (out of scope); the correctness
// predicate is suffix-shaped, like everything else in the paper:
// eventually, every retained slot is identical at all correct replicas
// that hold it, and the decided frontier keeps advancing.
//
//ftss:det replica transitions must replay identically from a seed
package smr

import (
	"fmt"
	"math/rand"
	"slices"

	"ftss/internal/ctcons"
	"ftss/internal/detector"
	"ftss/internal/proc"
	"ftss/internal/sim/async"
)

// Value is the command domain of the log.
type Value = ctcons.Value

// CommandSource supplies replica p's proposal for slot s. Pure function.
type CommandSource func(p proc.ID, slot uint64) Value

// GossipWindow is how many recent decided slots each replica re-announces
// per tick.
const GossipWindow = 8

// MaxCorruptSlot bounds corrupted slot numbers (feasibility bound, as for
// every counter in this module).
const MaxCorruptSlot = 1 << 40

// SlotMsg wraps a single-slot consensus message.
type SlotMsg struct {
	Slot  uint64
	Inner any
}

// SlotDecision is a gossiped log entry.
type SlotDecision struct {
	Slot  uint64
	Round uint64
	Val   Value
}

// LogGossip carries a batch of recent decisions.
type LogGossip struct {
	Entries []SlotDecision
}

// LogWindow answers a SlotMsg for a slot below the responder's window — a
// slot it skipped in a window jump, or one that fell off its ring. The
// responder can never supply that slot, so a requester still working
// below the window jumps to it rather than wait for the slot to decide
// (with the group's majority past it, it never would).
type LogWindow struct {
	Entries []SlotDecision
}

// entry is a log record: the decision plus the round that minted it (for
// the per-slot lattice).
type entry struct {
	round uint64
	val   Value
}

// beats is the per-slot lattice order: higher round wins, then higher
// value.
func (e entry) beats(o entry) bool {
	return e.round > o.round || (e.round == o.round && e.val > o.val)
}

// window is the retained log: the n consecutive decided slots starting
// at low, in a ring indexed by slot. Slots enter only at the top (push)
// or by restarting the ring (restart), so the span holds no holes by
// construction and its top is the frontier — stored, never scanned.
type window struct {
	ring [GossipWindow]entry
	low  uint64
	n    uint64
}

// top is the slot the window grows at: one past the frontier (low when
// the window is empty).
func (w *window) top() uint64 { return w.low + w.n }

// at returns slot s's retained entry, or nil when s is not retained.
func (w *window) at(s uint64) *entry {
	if s < w.low || s >= w.top() {
		return nil
	}
	return &w.ring[s%GossipWindow]
}

// push appends the decision for slot top(), evicting the oldest slot
// once the ring is full.
func (w *window) push(e entry) {
	w.ring[w.top()%GossipWindow] = e
	if w.n < GossipWindow {
		w.n++
	} else {
		w.low++
	}
}

// restart empties the window and reopens it at slot s.
func (w *window) restart(s uint64, e entry) {
	w.low, w.n = s, 1
	w.ring[s%GossipWindow] = e
}

// instance is the per-slot consensus state (a slim ctcons round machine;
// the detector lives in the replica and is shared across slots).
type instance struct {
	round      uint64
	estimate   Value
	ts         uint64
	proposed   bool
	propVal    Value
	estimates  map[proc.ID]ctcons.EstimateMsg
	acks       proc.Set
	nacks      proc.Set
	gotPropose *ctcons.ProposeMsg

	// A lookahead instance that reaches a decision — its own or one
	// adopted from a peer — holds it here until the commit cursor arrives
	// at its slot: decisions enter the log strictly in slot order.
	decided  bool
	decRound uint64
	decVal   Value
}

func newInstance(est Value) *instance {
	return &instance{
		estimate:  est,
		estimates: make(map[proc.ID]ctcons.EstimateMsg),
		acks:      proc.NewSet(),
		nacks:     proc.NewSet(),
	}
}

// Replica is one member of the replicated log.
type Replica struct {
	id    proc.ID
	n     int
	cmds  CommandSource
	det   *detector.StrongCore
	log   window
	cur   uint64 // slot the active instance is for (derived; see syncCursor)
	inst  *instance
	ahead []*instance // lookahead instances: ahead[i] runs slot cur+1+i
	jumps uint64      // window jumps taken (see adopt)
}

var _ async.Proc = (*Replica)(nil)

// NewReplicas builds n replicas over a shared ◊W detector.
func NewReplicas(n int, cmds CommandSource, weak detector.WeakDetector) ([]*Replica, []async.Proc) {
	rs := make([]*Replica, n)
	aps := make([]async.Proc, n)
	for i := 0; i < n; i++ {
		rs[i] = &Replica{
			id:   proc.ID(i),
			n:    n,
			cmds: cmds,
			det:  detector.NewStrongCore(proc.ID(i), n, weak),
		}
		rs[i].syncCursor()
		aps[i] = rs[i]
	}
	return rs, aps
}

// ID implements async.Proc.
func (r *Replica) ID() proc.ID { return r.id }

// CurrentSlot returns the slot the replica is working on.
func (r *Replica) CurrentSlot() uint64 { return r.cur }

// Get returns the decided command for a slot.
func (r *Replica) Get(slot uint64) (Value, bool) {
	if e := r.log.at(slot); e != nil {
		return e.val, true
	}
	return 0, false
}

// Frontier returns the largest decided slot and whether any slot is
// decided. Every retained slot below it is decided too.
func (r *Replica) Frontier() (uint64, bool) {
	if r.log.n == 0 {
		return 0, false
	}
	return r.log.top() - 1, true
}

// LogLen returns the number of decided slots held.
func (r *Replica) LogLen() int { return int(r.log.n) }

// Jumps returns how many window jumps the replica has taken: decisions
// that arrived too far ahead of its frontier to be held, so the window
// restarted at them and skipped the slots between. A hole-free group
// needs none; corruption (a far-future mint, or a replica left a window
// behind) is what causes them.
func (r *Replica) Jumps() uint64 { return r.jumps }

// Suspects implements detector.SuspectSource.
func (r *Replica) Suspects() proc.Set { return r.det.Suspects() }

func (r *Replica) majority() int { return r.n/2 + 1 }

func (r *Replica) coord(round uint64) proc.ID { return proc.ID(round % uint64(r.n)) }

// SetPipeline sets how many consecutive slots the replica drives
// concurrently: while slot cur finalizes, the instances for the next d-1
// slots already run their round agreement. A lookahead decision — reached
// locally or adopted from a peer — is held in its instance and committed
// strictly in slot order, so the log window never holds a decided slot
// above an undecided one, and depth 1 (the default) behaves — message for
// message — exactly like the unpipelined replica.
func (r *Replica) SetPipeline(d int) {
	if d < 1 {
		d = 1
	}
	ahead := make([]*instance, d-1)
	copy(ahead, r.ahead)
	r.ahead = ahead
	r.syncCursor()
}

// syncCursor re-derives the working slot from the log window, commits
// any held decision whose turn has come, and fills the lookahead. The
// cursor is never trusted as stored state — this is what makes its
// corruption harmless.
func (r *Replica) syncCursor() {
	if want := r.log.top(); r.cur != want {
		// A corrupted cursor: the instance it named is discarded.
		r.cur, r.inst = want, nil
	}
	for {
		if r.inst == nil {
			r.inst = newInstance(r.cmds(r.id, r.cur))
		}
		if !r.inst.decided {
			break
		}
		// Its turn in the commit order: the held decision enters the log
		// and the cursor moves on.
		r.adopt(SlotDecision{Slot: r.cur, Round: r.inst.decRound, Val: r.inst.decVal})
	}
	for i, in := range r.ahead {
		if in == nil {
			r.ahead[i] = newInstance(r.cmds(r.id, r.cur+1+uint64(i)))
		}
	}
}

// adopt files one decision by the rule that keeps the log hole-free.
// Relative to the window top t (one past the frontier):
//
//   - s < t merges into the per-slot lattice (a slot already fallen off
//     the window is dropped);
//   - s = t is appended, and the cursor moves on: the first lookahead
//     instance, with any decision it holds, becomes the active one
//     (syncCursor commits held decisions in order);
//   - t < s ≤ t+depth-1 is held in that slot's lookahead instance,
//     exactly like a decision the instance reached itself;
//   - anything further ahead is a window jump.
func (r *Replica) adopt(d SlotDecision) {
	e := entry{round: d.Round, val: d.Val}
	t := r.log.top()
	switch {
	case d.Slot < t:
		if old := r.log.at(d.Slot); old != nil && e.beats(*old) {
			*old = e
		}
	case d.Slot == t:
		r.log.push(e)
		r.inst = nil
		if len(r.ahead) > 0 {
			r.inst = r.ahead[0]
			copy(r.ahead, r.ahead[1:])
			r.ahead[len(r.ahead)-1] = nil
		}
		r.cur = r.log.top()
	case d.Slot-t <= uint64(len(r.ahead)):
		i := d.Slot - t - 1
		in := r.ahead[i]
		if in == nil {
			in = newInstance(r.cmds(r.id, d.Slot))
			r.ahead[i] = in
		}
		if !in.decided || e.beats(entry{round: in.decRound, val: in.decVal}) {
			in.decided, in.decRound, in.decVal = true, e.round, e.val
		}
	default:
		r.jump(d)
	}
}

// jump restarts the window at decision d and rebuilds the lookahead,
// skipping every slot between the old frontier and d. It is the only way
// a replica skips slots, and it is counted.
func (r *Replica) jump(d SlotDecision) {
	r.log.restart(d.Slot, entry{round: d.Round, val: d.Val})
	r.jumps++
	r.inst = nil
	clear(r.ahead)
	r.cur = r.log.top()
}

// retained returns the retained log as decisions, in slot order.
func (r *Replica) retained() []SlotDecision {
	entries := make([]SlotDecision, 0, r.log.n)
	for slot := r.log.low; slot < r.log.top(); slot++ {
		e := r.log.at(slot)
		entries = append(entries, SlotDecision{Slot: slot, Round: e.round, Val: e.val})
	}
	return entries
}

// OnTick implements async.Proc.
func (r *Replica) OnTick(ctx async.Context) {
	r.det.OnTick(ctx)
	r.syncCursor()

	// Gossip the retained window.
	if r.log.n > 0 {
		ctx.Broadcast(LogGossip{Entries: r.retained()})
	}

	// Drive the pipeline: the commit slot first, then the lookahead slots
	// in increasing order. Only the commit slot's decision moves the
	// cursor (a lookahead decision is held), so the lookahead loop sees a
	// fixed cursor; the instance a commit promoted waits for the next tick.
	r.driveInstance(ctx, r.cur, r.inst)
	for i, in := range r.ahead {
		r.driveInstance(ctx, r.cur+1+uint64(i), in)
	}
}

// driveInstance is one ctcons tick for one slot's instance (slot-wrapped
// messages). For the commit slot a majority of acks adopts the decision
// at once (via syncCursor); for a lookahead slot it is held in the
// instance until the commit order reaches it.
func (r *Replica) driveInstance(ctx async.Context, slot uint64, in *instance) {
	if in.decided {
		// Held lookahead decision: finished locally, waiting its turn.
		return
	}
	// Sanitize (mechanism 3).
	if in.ts > in.round {
		in.ts = in.round
	}
	c := r.coord(in.round)

	ctx.Broadcast(SlotMsg{Slot: slot, Inner: ctcons.RoundMsg{Round: in.round}})
	ctx.Send(c, SlotMsg{Slot: slot, Inner: ctcons.EstimateMsg{Round: in.round, Val: in.estimate, TS: in.ts}})

	if c != r.id && r.det.Suspects().Has(c) {
		ctx.Send(c, SlotMsg{Slot: slot, Inner: ctcons.NackMsg{Round: in.round}})
		in.advance(in.round + 1)
		return
	}
	if in.gotPropose != nil && in.gotPropose.Round == in.round {
		in.estimate = in.gotPropose.Val
		in.ts = in.round
		ctx.Send(c, SlotMsg{Slot: slot, Inner: ctcons.AckMsg{Round: in.round}})
	}
	if c == r.id {
		if !in.proposed && len(in.estimates) >= r.majority() {
			in.propVal = pick(in.estimates)
			in.proposed = true
		}
		if in.proposed {
			ctx.Broadcast(SlotMsg{Slot: slot, Inner: ctcons.ProposeMsg{Round: in.round, Val: in.propVal}})
		}
		if in.proposed && in.acks.Len() >= r.majority() {
			in.decided, in.decRound, in.decVal = true, in.round, in.propVal
			r.syncCursor() // commits in slot order; a lookahead slot waits its turn
			return
		}
		if in.proposed && in.nacks.Len() > 0 && in.acks.Len()+in.nacks.Len() >= r.majority() {
			in.advance(in.round + 1)
		}
	}
}

// advance abandons the instance's current round.
func (in *instance) advance(round uint64) {
	in.round = round
	in.proposed = false
	in.estimates = make(map[proc.ID]ctcons.EstimateMsg)
	in.acks = proc.NewSet()
	in.nacks = proc.NewSet()
	in.gotPropose = nil
}

// OnMessage implements async.Proc.
func (r *Replica) OnMessage(ctx async.Context, from proc.ID, payload any) {
	if r.det.OnMessage(ctx, from, payload) {
		return
	}
	switch m := payload.(type) {
	case LogGossip:
		for _, d := range m.Entries {
			r.adopt(d)
		}
		r.syncCursor()
	case LogWindow:
		if len(m.Entries) > 0 && m.Entries[0].Slot > r.log.top() {
			r.jump(m.Entries[0])
		}
		for _, d := range m.Entries {
			r.adopt(d)
		}
		r.syncCursor()
	case SlotMsg:
		if m.Slot == r.cur {
			r.onSlotMessage(r.inst, from, m.Inner)
			return
		}
		if m.Slot > r.cur && m.Slot-r.cur <= uint64(len(r.ahead)) {
			if in := r.ahead[m.Slot-r.cur-1]; in != nil {
				r.onSlotMessage(in, from, m.Inner)
				return
			}
		}
		// A slot we've already decided: answer with its decision so a
		// peer still working on it catches up at once.
		if e := r.log.at(m.Slot); e != nil {
			ctx.Send(from, LogGossip{Entries: []SlotDecision{
				{Slot: m.Slot, Round: e.round, Val: e.val},
			}})
		} else if m.Slot < r.log.low {
			ctx.Send(from, LogWindow{Entries: r.retained()})
		}
	}
}

func (r *Replica) onSlotMessage(in *instance, from proc.ID, inner any) {
	if in.decided {
		// A held lookahead decision is final; late round traffic for the
		// slot is irrelevant to it.
		return
	}
	switch m := inner.(type) {
	case ctcons.RoundMsg:
		if m.Round > in.round {
			in.advance(m.Round)
		}
	case ctcons.EstimateMsg:
		if m.Round > in.round {
			in.advance(m.Round)
		}
		if m.Round == in.round && r.coord(in.round) == r.id {
			e := m
			if e.TS > e.Round {
				e.TS = e.Round
			}
			in.estimates[from] = e
		}
	case ctcons.ProposeMsg:
		if m.Round > in.round {
			in.advance(m.Round)
		}
		if m.Round == in.round && from == r.coord(in.round) {
			prop := m
			in.gotPropose = &prop
		}
	case ctcons.AckMsg:
		if m.Round == in.round && r.coord(in.round) == r.id {
			in.acks.Add(from)
		}
	case ctcons.NackMsg:
		if m.Round > in.round {
			in.advance(m.Round)
		}
		if m.Round == in.round && r.coord(in.round) == r.id {
			in.nacks.Add(from)
		}
	}
}

// Corrupt implements failure.Corruptible: the detector, the instance, the
// log (a few poisoned entries), and the cursor (which syncCursor will
// immediately override — kept here to document that it is derived).
func (r *Replica) Corrupt(rng *rand.Rand) {
	r.det.Corrupt(rng)
	cur := uint64(rng.Int63n(MaxCorruptSlot))
	inst := newInstance(Value(rng.Int63n(1 << 20)))
	inst.round = uint64(rng.Int63n(MaxCorruptSlot))
	inst.ts = uint64(rng.Int63n(MaxCorruptSlot))
	inst.proposed = rng.Intn(2) == 0
	inst.propVal = Value(rng.Int63n(1 << 20))
	// The lookahead is derived state too: drop it and let syncCursor
	// rebuild it (a corrupted lookahead instance is indistinguishable
	// from a fresh one to the protocol, and clearing keeps the rng stream
	// identical to the unpipelined replica).
	clear(r.ahead)
	// Poison a few log entries, including possibly a far-future slot. A
	// retained slot is overwritten outright; any other poison is filed by
	// the adopt rule, so a far-future mint is a window jump.
	for i := 0; i < 3; i++ {
		if rng.Intn(2) == 0 {
			continue
		}
		slot := uint64(rng.Int63n(12))
		if rng.Intn(4) == 0 {
			slot = uint64(rng.Int63n(1 << 20)) // far-future mint
		}
		e := entry{
			round: uint64(rng.Int63n(1 << 20)),
			val:   Value(rng.Int63n(1 << 20)),
		}
		if old := r.log.at(slot); old != nil {
			*old = e
		} else {
			r.adopt(SlotDecision{Slot: slot, Round: e.round, Val: e.val})
		}
	}
	// The poison was filed against the true frontier; the corrupted
	// cursor and instance land last, for syncCursor to discard.
	r.cur, r.inst = cur, inst
}

func pick(ests map[proc.ID]ctcons.EstimateMsg) Value {
	best := proc.None
	var bestTS uint64
	ids := make([]proc.ID, 0, len(ests))
	for q := range ests {
		ids = append(ids, q)
	}
	slices.Sort(ids)
	for _, q := range ids {
		e := ests[q]
		if best == proc.None || e.TS > bestTS ||
			(e.TS == bestTS && ests[best].Val == NoOp && e.Val != NoOp) {
			// Highest timestamp wins (a locked estimate must prevail for
			// safety); on ties, a real proposal beats the batching
			// frontend's NoOp sentinel so open batches are not starved by
			// lower-ID idle replicas. Any tie-break is safe here — every
			// estimate in the map came from the majority.
			best, bestTS = q, e.TS
		}
	}
	return ests[best].Val
}

// String aids debugging.
func (r *Replica) String() string {
	return fmt.Sprintf("replica[%v slot=%d round=%d log=%d]", r.id, r.cur, r.inst.round, r.log.n)
}
