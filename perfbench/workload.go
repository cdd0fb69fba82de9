package main

import (
	"fmt"
	"math/rand"
	"slices"

	"ftss/internal/sim/async"
	"ftss/internal/store"
	"ftss/internal/wire"
)

// spec is one workload. Every workload uses 3 replicas and the store's
// default batching (MaxBatch 64, Pipeline 2).
type spec struct {
	name string
	// shards and keys size the store and the register space.
	shards, keys int
	// opsPerConn bounds a serve episode: serveConns closed-loop
	// connections served over loopback TCP. A fresh store per episode
	// keeps memory independent of how fast ops complete; an episode
	// lasts several seconds, long enough for the known log-hole
	// verdict failures to show.
	opsPerConn int
	// bulkOps, when positive, makes a bulk episode instead: the whole
	// op set is submitted, then Store.Drive runs.
	bulkOps int
	// rateBlock consecutive replies make one ops_per_s sample and
	// latBlock one sample of each latency percentile; the run reports
	// the median sample.
	rateBlock, latBlock int
	// corruptEvery strikes one replica per shard on this sim cadence.
	corruptEvery async.Time
}

const (
	// serveConns closed-loop connections per serve episode.
	serveConns = 2
	// serveWarmOps per connection make the unmeasured warm-up episode.
	serveWarmOps = 300
	// driveWorkers is the Store.Drive fan-out in the bulk workload.
	driveWorkers = 2
)

var workloads = []spec{
	// Each op gets its own DriveAll on an idle shard, so wall time is the
	// sim/async and smr work per op; locks and batching stay idle.
	{name: "serve-uniform", shards: 16, keys: 4096, opsPerConn: 4000, rateBlock: 1000, latBlock: 1000},
	// Every op queues on one shard mutex behind the other connection's
	// DriveAll, and about 1/3 of ops are failed-CAS reads.
	{name: "serve-hot", shards: 1, keys: 16, opsPerConn: 3000, rateBlock: 1000, latBlock: 1000},
	// No network; forfeits, retries and Def. 2.4 containment under
	// strikes. 8192 ops are 512 per shard, so each replica's frontend
	// seals full 64-command batches. Rates are per episode, latency
	// percentiles per 16 episodes.
	{name: "bulk-corrupt", shards: 16, bulkOps: 8192, rateBlock: 8192, latBlock: 16 * 8192, corruptEvery: 40 * async.Millisecond},
}

func lookup(name string) (spec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// storeConfig is the store every episode of w builds.
func (w spec) storeConfig(seed int64) store.Config {
	return store.Config{Shards: w.shards, Replicas: 3, Seed: seed, CorruptEvery: w.corruptEvery}
}

// episodeSeed derives an independent seed per (run seed, phase,
// episode) so no two episodes of a run replay the same ops.
func episodeSeed(seed int64, phase, episode int) int64 {
	return seed*1_000_003 + int64(phase)*104_729 + int64(episode)*7919
}

// keyNames returns the register names k0000..k(n-1).
func keyNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("k%04d", i)
	}
	return out
}

// keyStream draws a closed-loop connection's uniform key sequence.
func keyStream(names []string, n int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	out := make([]string, n)
	for i := range out {
		out[i] = names[rng.Intn(len(names))]
	}
	return out
}

// bulkOpSet is BenchmarkStoreShards' key stream: uniform keys over n/4
// registers, versions predicted as if every op applied in submission
// order, and about 1/5 deliberately stale CAS.
func bulkOpSet(n int, seed int64) []store.Op {
	rng := rand.New(rand.NewSource(seed))
	names := keyNames(n / 4)
	ver := make(map[string]uint64, n/4)
	ops := make([]store.Op, n)
	for j := range ops {
		k := names[rng.Intn(len(names))]
		old := ver[k]
		if rng.Intn(5) == 0 {
			old++ // deliberate stale CAS
		} else {
			ver[k]++
		}
		ops[j] = store.Op{Key: k, Old: old, Val: int64(j)}
	}
	return ops
}

// checkReply applies the per-reply correctness rules to one op: the
// reply answers this request, a successful CAS installed exactly Old+1
// and the sent value, and a failed CAS saw a version other than Old.
func checkReply(req wire.CASRequest, rep wire.CASReply) error {
	switch {
	case rep.ID != req.ID:
		return fmt.Errorf("reply ID %d for request %d", rep.ID, req.ID)
	case rep.OK && (rep.Version != req.Old+1 || rep.Val != req.Val):
		return fmt.Errorf("%s: CAS from v%d applied as v%d val %d, want v%d val %d",
			req.Key, req.Old, rep.Version, rep.Val, req.Old+1, req.Val)
	case !rep.OK && rep.Version == req.Old:
		return fmt.Errorf("%s: CAS from v%d failed at matching version", req.Key, req.Old)
	}
	return nil
}

// ledger gathers one episode's client-side outcomes for the checks that
// need more than one reply: totals against Store.Stats and, per key,
// successful CAS versions against the register's final state.
type ledger struct {
	ok, miss uint64
	// granted holds every version a successful CAS returned, per key.
	granted map[string][]uint64
	// failed counts ops that broke a rule; errs keeps the first few.
	failed int
	errs   []string
}

func newLedger() *ledger { return &ledger{granted: make(map[string][]uint64)} }

func (l *ledger) fail(n int, format string, args ...any) {
	l.failed += n
	if len(l.errs) < 5 {
		l.errs = append(l.errs, fmt.Sprintf(format, args...))
	}
}

// reply records one checked reply.
func (l *ledger) reply(key string, ok bool, version uint64) {
	if ok {
		l.ok++
		l.granted[key] = append(l.granted[key], version)
	} else {
		l.miss++
	}
}

func (l *ledger) merge(o *ledger) {
	l.ok += o.ok
	l.miss += o.miss
	for k, vs := range o.granted {
		l.granted[k] = append(l.granted[k], vs...)
	}
	l.mergeFailures(o)
}

// mergeFailures takes only o's failures, as for a warm-up episode,
// which is checked but not measured.
func (l *ledger) mergeFailures(o *ledger) {
	l.failed += o.failed
	for _, e := range o.errs {
		if len(l.errs) < 5 {
			l.errs = append(l.errs, e)
		}
	}
}

// settle runs the episode-level checks once every op has returned:
// client ok/mismatch totals must equal the store's, and each key's
// successful versions must be exactly 1..n with n the register's final
// version — a duplicate is a lost update, a gap an unreported write.
func (l *ledger) settle(st *store.Store) {
	s := st.Stats()
	if s.OK != l.ok || s.Mismatch != l.miss {
		d := absDiff(s.OK, l.ok) + absDiff(s.Mismatch, l.miss)
		l.fail(int(d), "client totals ok=%d mismatch=%d, store ok=%d mismatch=%d", l.ok, l.miss, s.OK, s.Mismatch)
	}
	for _, k := range sortedKeys(l.granted) {
		vs := l.granted[k]
		slices.Sort(vs)
		final, _ := st.Shard(st.ShardFor(k)).Get(k)
		for i, v := range vs {
			if v != uint64(i+1) {
				l.fail(1, "%s: successful CAS versions %v are not 1..%d", k, vs, len(vs))
				break
			}
		}
		if final != uint64(len(vs)) {
			l.fail(1, "%s: final version %d after %d successful CAS", k, final, len(vs))
		}
	}
}

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}
