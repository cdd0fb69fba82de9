package store

import (
	"fmt"

	"ftss/internal/chaos"
	"ftss/internal/core"
	"ftss/internal/history"
	"ftss/internal/proc"
)

// WindowAgreement is the sharded store's Σ for Definition 2.4: at every
// poll of a stable segment, each up replica's cell — the group frontier
// W and a hash of its decided log window (W−hashWindow, W] — exists and
// is identical across replicas, and W never regresses between polls of
// the segment. Unlike the soak's StableAgreement the register is
// *supposed* to advance (the log grows forever); what must stabilize is
// that the replicas advance in lockstep over the hashed window.
//
// Corruption breaks it two ways: a poisoned log window hashes
// differently, and a window jump (a far-future mint, or a replica
// following one) leaves a replica without the slots its peers still
// hash. Each is admissible only inside the stabilization budget that
// follows the recorded systemic mark. The smr log is hole-free, so with
// no corruption every up replica holds every hashed slot.
var WindowAgreement core.Problem = windowAgreement{}

type windowAgreement struct{}

// Name implements core.Problem.
func (windowAgreement) Name() string { return "store window-agreement" }

// Check implements core.Problem.
func (windowAgreement) Check(h *history.History, lo, hi int, faulty proc.Set) error {
	var st windowAgreementState
	for r := lo; r <= hi; r++ {
		if err := st.round(h, r, faulty); err != nil {
			return err
		}
	}
	return nil
}

// NewWindow implements core.Streaming: the only cross-poll state is the
// previous frontier, carried across extensions so the incremental
// checker never rescans.
func (windowAgreement) NewWindow(h *history.History, lo int, faulty proc.Set) core.WindowChecker {
	return &windowAgreementWindow{h: h, faulty: faulty}
}

var _ core.Streaming = windowAgreement{}

type windowAgreementWindow struct {
	h      *history.History
	faulty proc.Set
	st     windowAgreementState
}

// Extend implements core.WindowChecker.
func (w *windowAgreementWindow) Extend(hi int) error {
	return w.st.round(w.h, hi, w.faulty)
}

// windowAgreementState threads the frontier between polls; round is the
// batch scan's loop body, shared verbatim with the streaming window.
type windowAgreementState struct {
	prevW    uint64
	havePrev bool
}

func (st *windowAgreementState) round(h *history.History, r int, faulty proc.Set) error {
	var common chaos.DecisionCell
	have := false
	for _, p := range h.AliveAt(r).Sorted() {
		if faulty.Has(p) {
			continue
		}
		snap, _ := h.SnapshotAt(r, p)
		cell, _ := snap.Decided.(chaos.DecisionCell)
		if !cell.OK {
			return &core.Violation{
				Problem: "store window-agreement", Round: r,
				Detail: fmt.Sprintf("%v holds no frontier", p),
			}
		}
		if !have {
			common, have = cell, true
		} else if cell != common {
			return &core.Violation{
				Problem: "store window-agreement", Round: r,
				Detail: fmt.Sprintf("%v's log window %v diverges from %v", p, cell, common),
			}
		}
	}
	if have {
		if st.havePrev && common.Round < st.prevW {
			return &core.Violation{
				Problem: "store window-agreement", Round: r,
				Detail: fmt.Sprintf("frontier regressed %d → %d", st.prevW, common.Round),
			}
		}
		st.prevW, st.havePrev = common.Round, true
	}
	return nil
}
