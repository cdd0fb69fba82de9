// Command perfbench is the repository's benchmark: it serves the
// sharded CAS store in-process and reports end-to-end metrics with
// tracing off, or per-layer metrics from a separate traced run.
//
//	go run . --workload serve-uniform --seed 1 --seconds 10 --trace 0
//
// Workloads (see workload.go and README.md): serve-uniform and
// serve-hot drive two closed-loop loopback connections against
// store.Server; bulk-corrupt submits whole op sets under corruption and
// runs Store.Drive(2). Every reply is checked. The last line of
// standard output is one JSON object:
//
//	{"correct":…,"attempted":…,"failed":…,"metrics":{"name":{"value":…,"unit":…}}}
//
// With --trace 1 the run first measures untraced for half of --seconds
// (the runtime metrics and the trace-overhead baseline), then traced
// for --seconds: the store.Server connection loop, or Store.Drive's
// fan-out, is replaced by a stamped copy making the same public calls,
// and every stamp is written as obs span JSONL to --spans.
//
//ftss:conc closed-loop clients, the server and the traced handler run on separate goroutines
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"ftss/internal/sim/async"
	"ftss/internal/store"
)

// warmSetups are set-ups built and torn down before measuring: they
// warm the allocator and give setup_s a median over at least 21
// samples with the episodes' own set-ups.
const warmSetups = 20

// e2eNames and layerNames are the metrics the final JSON line carries
// with --trace 0 and --trace 1; BENCHMARK.json lists the same names.
var e2eNames = []string{"ops_per_s", "writes_per_s", "p50_us", "p99_us", "sim_ops_per_s", "setup_s", "rss_peak_mb"}

var layerNames = []string{
	"wire.encode_ns", "wire.read_us", "wire.bytes_per_op",
	"server.wait_us", "server.write_us", "client.rtt_us", "trace.overhead_share",
	"store.submit_us.p50", "store.submit_us.p99", "store.lock_wait_share",
	"store.ops_per_drive", "store.drive_us.p50", "store.drive_us.p99",
	"store.sim_us_per_drive", "store.wall_us_per_sim_ms", "store.polls_per_op",
	"store.retries_per_kop", "store.dups_per_kop", "store.marks_per_shard",
	"store.containment_polls.p99", "store.shard_drive_ms.max", "store.drive_skew",
	"mem.allocs_per_op", "mem.bytes_per_op", "gc.cpu_share", "gc.cycles", "cpu.busy_share",
}

// metric is one reported number with the samples behind it.
type metric struct {
	name  string
	value float64
	unit  string
	n     int    // samples the value was computed from
	note  string // sample detail or why the layer does not apply
}

// runResult accumulates one phase's episodes.
type runResult struct {
	attempted int
	led       *ledger
	elapsed   time.Duration // measured wall time, set-up excluded
	lat       []int64       // send-to-reply wall ns per completed op
	setup     []float64     // seconds per set-up
	// opsRate and writeRate are completed ops and successful writes
	// per second in each block of replies.
	opsRate, writeRate []float64
	// rssMB is the peak RSS once the first measured episode ended,
	// before the run's own sample arrays grow with its length.
	rssMB float64

	episodes, shardVerdicts, verdictFails int
	applied, retries, marks, polls, dups  uint64
	makespan                              async.Time // summed over episodes
}

// episode folds a finished episode's store counters into the result.
func (r *runResult) episode(st *store.Store) {
	s := st.Stats()
	r.episodes++
	if r.episodes == 1 {
		r.rssMB = peakRSSMB()
	}
	r.applied += s.Applied
	r.makespan += s.Makespan
	r.retries += s.Retries
	r.marks += s.Marks
	r.shardVerdicts += s.Shards
	r.verdictFails += s.Shards - s.VerdictsPass
	for i := 0; i < st.NumShards(); i++ {
		sh := st.Shard(i)
		r.polls += sh.Polls()
		r.dups += sh.Registry().Counter("dups").Value()
	}
}

// completion is one replied op: its send-to-reply latency, when the
// reply landed (since the episode's measuring began), and whether it
// was a successful write.
type completion struct {
	lat, at time.Duration
	write   bool
}

// completed folds an episode's replies into the result. Rates are
// taken per block of consecutive replies (per block of ops, so a rate
// keeps all its digits), and the run reports the median block rather
// than a mean a stall can drag. A trailing partial block is left out.
func (r *runResult) completed(done []completion, block int) {
	slices.SortFunc(done, func(a, b completion) int { return cmp.Compare(a.at, b.at) })
	var from time.Duration
	writes := 0
	for i, c := range done {
		r.lat = append(r.lat, c.lat.Nanoseconds())
		if c.write {
			writes++
		}
		if (i+1)%block == 0 {
			secs := (c.at - from).Seconds()
			r.opsRate = append(r.opsRate, ratio(float64(block), secs))
			r.writeRate = append(r.writeRate, ratio(float64(writes), secs))
			from, writes = c.at, 0
		}
	}
}

func measure(w spec, seed int64, seconds float64, phase int, tr *tracer) (*runResult, error) {
	if w.bulkOps > 0 {
		return runBulk(w, seed, seconds, phase, tr)
	}
	return runServe(w, seed, seconds, phase, tr)
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: serve-uniform, serve-hot or bulk-corrupt")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "measured wall seconds")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	spansFile := fs.String("spans", "", "traced span JSONL output (default .bench_build/<workload>.spans.jsonl)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := lookup(*name)
	if err != nil {
		return err
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("want --seconds > 0 and --trace 0 or 1")
	}
	// Two drive workers and two connections: pin the scheduler to the
	// two cores the figures were taken on, whatever the host has.
	runtime.GOMAXPROCS(2)

	var ms []metric
	var attempted, failed int
	var errs []string
	if *trace == 0 {
		r, err := measure(w, *seed, *seconds, 0, nil)
		if err != nil {
			return err
		}
		attempted, failed, errs = r.attempted, r.led.failed, r.led.errs
		if ms, err = e2eMetrics(w, r); err != nil {
			return err
		}
	} else {
		path := *spansFile
		if path == "" {
			path = filepath.Join(".bench_build", w.name+".spans.jsonl")
		}
		a := sampleProc()
		un, err := measure(w, *seed, *seconds/2, 0, nil)
		if err != nil {
			return err
		}
		b := sampleProc()
		tr := newTracer(*seed)
		traced, err := measure(w, *seed, *seconds, 1, tr)
		if err != nil {
			return err
		}
		attempted = un.attempted + traced.attempted
		failed = un.led.failed + traced.led.failed
		errs = append(un.led.errs, traced.led.errs...)
		ms = layerMetrics(w, un, traced, tr, runtimeMetrics(a, b, un.attempted))
		if err := writeSpans(out, tr, path); err != nil {
			return err
		}
	}
	for _, e := range errs {
		fmt.Fprintf(out, "check failed: %s\n", e)
	}
	for _, m := range ms {
		fmt.Fprintf(out, "%-28s %14.6g %-6s n=%d %s\n", m.name, m.value, m.unit, m.n, m.note)
	}
	names := e2eNames
	if *trace == 1 {
		names = layerNames
	}
	line, err := resultLine(failed == 0, attempted, failed, ms, names)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	return nil
}

// e2eMetrics derives the end-to-end metrics of an untraced run. A
// percentile refused for too few samples fails the run.
func e2eMetrics(w spec, r *runResult) ([]metric, error) {
	lat := newDist(nanosToMicros(r.lat))
	var pcts []metric
	for _, p := range []struct {
		name string
		q    float64
	}{{"p50_us", 0.50}, {"p99_us", 0.99}} {
		v, blocks, err := blockQuantile(r.lat, w.latBlock, p.q)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		all, beyond, err := lat.quantile(p.q)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		pcts = append(pcts, metric{name: p.name, unit: "us", value: v, n: len(r.lat),
			note: fmt.Sprintf("median of %d blocks of %d; over all samples %.1f with %d beyond", blocks, w.latBlock, all, beyond)})
	}
	setup, _, err := newDist(r.setup).quantile(0.50)
	if err != nil {
		return nil, fmt.Errorf("setup_s: %w", err)
	}
	secs := r.elapsed.Seconds()
	n := len(r.lat)
	return []metric{
		{name: "ops_per_s", unit: "1/s", value: median(r.opsRate), n: n, note: fmt.Sprintf("median of %d blocks; mean %.1f over %.3fs in %d episodes", len(r.opsRate), ratio(float64(n), secs), secs, r.episodes)},
		{name: "writes_per_s", unit: "1/s", value: median(r.writeRate), n: int(r.led.ok), note: fmt.Sprintf("median of %d blocks; %d failed-CAS reads", len(r.writeRate), r.led.miss)},
		pcts[0], pcts[1],
		{name: "error_share", unit: "share", value: ratio(float64(r.led.failed), float64(r.attempted)), n: r.attempted, note: fmt.Sprintf("%d failed", r.led.failed)},
		{name: "verdict_fail_shards", unit: "count", value: float64(r.verdictFails), n: r.shardVerdicts, note: fmt.Sprintf("of %d shard verdicts in %d episodes", r.shardVerdicts, r.episodes)},
		{name: "sim_ops_per_s", unit: "1/s", value: ratio(float64(r.applied)*1e6, float64(r.makespan)), n: r.episodes, note: "applied over summed makespan, sim clock"},
		{name: "setup_s", unit: "s", value: setup, n: len(r.setup), note: "median set-up"},
		{name: "rss_peak_mb", unit: "MiB", value: r.rssMB, n: 1, note: "peak RSS after the first measured episode"},
	}, nil
}

// resultLine renders the final JSON line with the named metrics.
func resultLine(correct bool, attempted, failed int, ms []metric, names []string) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	byName := make(map[string]metric, len(ms))
	for _, m := range ms {
		byName[m.name] = m
	}
	out := make(map[string]value, len(names))
	for _, n := range names {
		m, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", n)
		}
		out[n] = value{Value: m.value, Unit: m.unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, attempted, failed, out})
}

// writeSpans writes the traced phase's spans as obs JSONL.
func writeSpans(out io.Writer, tr *tracer, path string) error {
	col := tr.spans()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = col.WriteJSONL(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	fmt.Fprintf(out, "spans: %d written to %s, %d ID collisions\n", col.Len(), path, col.Collisions())
	return nil
}
