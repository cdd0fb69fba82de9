package main

import (
	"sync"
	"time"

	"ftss/internal/obs"
	"ftss/internal/sim/async"
	"ftss/internal/store"
	"ftss/internal/wire"
)

// bulkEnv is one bulk episode's set-up: a fresh store and its op set.
type bulkEnv struct {
	st  *store.Store
	ops []store.Op
}

func setupBulk(w spec, seed int64, tr *tracer) *bulkEnv {
	cfg := w.storeConfig(seed)
	if tr != nil {
		cfg.Events = tr.containment
	}
	return &bulkEnv{st: store.New(cfg), ops: bulkOpSet(w.bulkOps, seed+1)}
}

// shardDrive is one shard's DriveAll in a traced bulk episode.
type shardDrive struct {
	span                obs.SpanID
	episode, shard      int
	start, end          time.Time
	simBefore, simAfter async.Time
	err                 error
}

// driveTraced is Store.Drive with stamps: the same shared-index worker
// pool calling Shard.DriveAll on every shard, each drive timed and
// bracketed by read-only Shard.Now calls for its sim time.
func driveTraced(st *store.Store, workers int) []shardDrive {
	n := st.NumShards()
	out := make([]shardDrive, n)
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				sh := st.Shard(i)
				d := shardDrive{shard: i, simBefore: sh.Now(), start: time.Now()}
				d.err = sh.DriveAll()
				d.end = time.Now()
				d.simAfter = sh.Now()
				out[i] = d
			}
		}()
	}
	wg.Wait()
	return out
}

// runBulk runs bulk episodes — submit the whole op set, then drive every
// shard to drain — until seconds of measured wall time have passed.
// Every op of an episode is answered when the drive returns, so an op's
// latency runs from its Submit call to the end of the drive. An
// untraced warm-up episode comes first: its ops are checked but not
// measured.
func runBulk(w spec, seed int64, seconds float64, phase int, tr *tracer) (*runResult, error) {
	res := &runResult{led: newLedger()}
	for i := 0; i < warmSetups; i++ {
		t0 := time.Now()
		setupBulk(w, episodeSeed(seed, phase, -1-i), tr)
		res.setup = append(res.setup, time.Since(t0).Seconds())
	}
	budget := time.Duration(seconds * float64(time.Second))
	for ep := -1; res.elapsed < budget; ep++ {
		warm := ep < 0
		etr := tr
		if warm {
			etr = nil
		}
		t0 := time.Now()
		env := setupBulk(w, episodeSeed(seed, phase, ep), etr)
		res.setup = append(res.setup, time.Since(t0).Seconds())

		st := env.st
		shards := make([]int, len(env.ops))
		ids := make([]int64, len(env.ops))
		sent := make([]time.Time, len(env.ops))
		start := time.Now()
		for i, op := range env.ops {
			sent[i] = time.Now()
			shards[i], ids[i] = st.Submit(op)
		}
		var drives []shardDrive
		var err error
		if etr == nil {
			err = st.Drive(driveWorkers)
		} else {
			drives = driveTraced(st, driveWorkers)
		}
		end := time.Now()
		res.attempted += len(env.ops)

		led := newLedger()
		if err != nil {
			led.fail(0, "episode %d: %v", ep, err)
		}
		for _, d := range drives {
			if d.err != nil {
				led.fail(0, "episode %d shard %03d: %v", ep, d.shard, d.err)
			}
		}
		done := make([]completion, 0, len(env.ops))
		for i, op := range env.ops {
			r, ok := st.Shard(shards[i]).Result(ids[i])
			if !ok {
				led.fail(1, "episode %d op %d: unapplied at the sim horizon", ep, i)
				continue
			}
			c := completion{lat: end.Sub(sent[i]), at: end.Sub(start)}
			req := wire.CASRequest{Key: op.Key, Old: op.Old, Val: op.Val}
			if err := checkReply(req, wire.CASReply{OK: r.OK, Version: r.Version, Val: r.Val}); err != nil {
				led.fail(1, "episode %d op %d: %v", ep, i, err)
			} else {
				led.reply(op.Key, r.OK, r.Version)
				c.write = r.OK
			}
			done = append(done, c)
		}
		led.settle(st)
		if warm {
			res.led.mergeFailures(led)
			continue
		}
		res.elapsed += end.Sub(start)
		res.completed(done, w.rateBlock)
		res.led.merge(led)
		res.episode(st)
		if tr != nil {
			tr.endBulkEpisode(ep, sent, drives)
		}
	}
	return res, nil
}

// endBulkEpisode keeps a traced bulk episode's drives and submit times
// (each op's submit is timed as the gap to the next op's send stamp).
func (t *tracer) endBulkEpisode(ep int, sent []time.Time, drives []shardDrive) {
	perShard := make([]float64, len(drives))
	for i := range drives {
		drives[i].span = obs.DeriveSpanID(t.seed, 1<<32|uint64(ep), uint64(drives[i].shard))
		drives[i].episode = ep
		perShard[i] = float64(drives[i].end.Sub(drives[i].start).Nanoseconds()) / 1e6
	}
	t.shardDriveMs = append(t.shardDriveMs, perShard)
	t.bulkDrives = append(t.bulkDrives, drives...)
	for i := 1; i < len(sent); i++ {
		t.bulkSubmits = append(t.bulkSubmits, sent[i].Sub(sent[i-1]).Nanoseconds())
	}
}

// driveStats summarizes per-shard drive wall times over episodes: the
// median episode's slowest shard, and the median episode's skew (its
// slowest shard over its median shard).
func driveStats(perEpisode [][]float64) (maxMs, skew float64) {
	if len(perEpisode) == 0 {
		return 0, 0
	}
	maxes := make([]float64, 0, len(perEpisode))
	skews := make([]float64, 0, len(perEpisode))
	for _, ms := range perEpisode {
		d := newDist(ms)
		maxes = append(maxes, d.max())
		skews = append(skews, ratio(d.max(), d[(len(d)-1)/2]))
	}
	return median(maxes), median(skews)
}
