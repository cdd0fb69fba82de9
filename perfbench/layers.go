package main

import (
	"fmt"
	"time"
)

// layerMetrics derives the per-layer metrics of a traced run: un is
// the untraced phase (trace overhead baseline; rt are the runtime
// metrics measured over it), traced the phase whose stamps t holds.
// A layer the workload does not reach reports 0 with a note.
func layerMetrics(w spec, un, traced *runResult, t *tracer, rt []metric) []metric {
	var submit, drive []int64
	var advancing int
	var simUs, driveWallUs float64
	for _, op := range t.server {
		submit = append(submit, op.sub1.Sub(op.sub0).Nanoseconds())
		d := op.drive1.Sub(op.drive0)
		drive = append(drive, d.Nanoseconds())
		if op.simAfter > op.simBefore {
			advancing++
			simUs += float64(op.simAfter - op.simBefore)
			driveWallUs += float64(d.Nanoseconds()) / 1e3
		}
	}
	for _, d := range t.bulkDrives {
		drive = append(drive, d.end.Sub(d.start).Nanoseconds())
		if d.simAfter > d.simBefore {
			advancing++
			simUs += float64(d.simAfter - d.simBefore)
			driveWallUs += float64(d.end.Sub(d.start).Nanoseconds()) / 1e3
		}
	}
	submit = append(submit, t.bulkSubmits...)

	ops := float64(len(traced.lat))
	var ms []metric
	add := func(name, unit string, v float64, n int, note string) {
		ms = append(ms, metric{name: name, unit: unit, value: v, n: n, note: note})
	}
	// pct adds a percentile of raw ns samples, scaled by div, or 0 with
	// the refusal (or "n/a" when the layer saw no samples).
	pct := func(name, unit string, ns []int64, q, div float64) {
		if len(ns) == 0 {
			add(name, unit, 0, 0, "n/a: "+w.name+" does not reach this layer")
			return
		}
		xs := make([]float64, len(ns))
		for i, v := range ns {
			xs[i] = float64(v) / div
		}
		v, beyond, err := newDist(xs).quantile(q)
		if err != nil {
			add(name, unit, 0, len(xs), err.Error())
			return
		}
		add(name, unit, v, len(xs), fmt.Sprintf("%d beyond", beyond))
	}
	stampNs := func(from, to func(serverOp) time.Time) []int64 {
		out := make([]int64, 0, len(t.server))
		for _, op := range t.server {
			out = append(out, to(op).Sub(from(op)).Nanoseconds())
		}
		return out
	}

	var reqBytes, repBytes, rttSum, submitSum float64
	var rtt []int64
	for _, op := range t.client {
		reqBytes += float64(op.reqBytes)
		d := op.recv.Sub(op.sent).Nanoseconds()
		rtt = append(rtt, d)
		rttSum += float64(d)
	}
	for _, op := range t.server {
		repBytes += float64(op.replyBytes)
		submitSum += float64(op.sub1.Sub(op.sub0).Nanoseconds())
	}

	pct("wire.encode_ns", "ns", stampNs(func(o serverOp) time.Time { return o.result }, func(o serverOp) time.Time { return o.enc }), 0.5, 1)
	pct("wire.read_us", "us", stampNs(func(o serverOp) time.Time { return o.first }, func(o serverOp) time.Time { return o.read }), 0.5, 1e3)
	add("wire.bytes_per_op", "B", ratio(reqBytes+repBytes, float64(len(t.server))), len(t.server), "request+reply frames, trace context included")
	pct("server.wait_us", "us", stampNs(func(o serverOp) time.Time { return o.last }, func(o serverOp) time.Time { return o.first }), 0.5, 1e3)
	pct("server.write_us", "us", stampNs(func(o serverOp) time.Time { return o.enc }, func(o serverOp) time.Time { return o.write }), 0.5, 1e3)
	pct("client.rtt_us", "us", rtt, 0.5, 1e3)
	tops, uops := median(traced.opsRate), median(un.opsRate)
	add("trace.overhead_share", "share", 1-ratio(tops, uops), len(traced.opsRate),
		fmt.Sprintf("median window: traced %.1f vs untraced %.1f ops/s", tops, uops))

	pct("store.submit_us.p50", "us", submit, 0.5, 1e3)
	pct("store.submit_us.p99", "us", submit, 0.99, 1e3)
	add("store.lock_wait_share", "share", ratio(submitSum, rttSum), len(t.server), "submit time over client RTT")
	add("store.ops_per_drive", "count", ratio(ops, float64(advancing)), advancing, "ops per DriveAll that ran the engine")
	pct("store.drive_us.p50", "us", drive, 0.5, 1e3)
	pct("store.drive_us.p99", "us", drive, 0.99, 1e3)
	add("store.sim_us_per_drive", "us", ratio(simUs, float64(advancing)), advancing, "sim clock")
	add("store.wall_us_per_sim_ms", "us", ratio(driveWallUs, simUs/1e3), advancing, "DriveAll wall per sim ms")
	add("store.polls_per_op", "count", ratio(float64(traced.polls), ops), len(traced.lat), "Def. 2.4 polls")
	add("store.retries_per_kop", "1/kop", ratio(float64(traced.retries)*1e3, ops), len(traced.lat), "")
	add("store.dups_per_kop", "1/kop", ratio(float64(traced.dups)*1e3, ops), len(traced.lat), "")
	add("store.marks_per_shard", "count", ratio(float64(traced.marks), float64(traced.shardVerdicts)), traced.shardVerdicts, "corruption strikes per shard episode")
	if polls := t.containment.samples(); len(polls) > 0 {
		v, beyond, err := newDist(polls).quantile(0.99)
		note := fmt.Sprintf("%d beyond", beyond)
		if err != nil {
			note = err.Error()
		}
		add("store.containment_polls.p99", "count", v, len(polls), note)
	} else {
		add("store.containment_polls.p99", "count", 0, 0, "n/a: no corruption strike reconverged")
	}
	maxMs, skew := driveStats(t.shardDriveMs)
	add("store.shard_drive_ms.max", "ms", maxMs, len(t.shardDriveMs), "median episode's slowest shard")
	add("store.drive_skew", "ratio", skew, len(t.shardDriveMs), "slowest over median shard, median episode")
	return append(ms, rt...)
}
