// Command ftss-store serves the sharded CAS key-value store over TCP:
// N completely independent Π⁺ consensus groups (internal/store) behind
// the wire CASRequest/CASReply framing, one shard per key-space slice
// under the deterministic FNV-1a router. Connections are closed-loop —
// one op in flight per connection, replies in order — and each op is
// driven to commitment on its shard's private discrete-event engine
// before the reply frame leaves.
//
// With -corrupt-every the server periodically corrupts one seeded-
// random replica per shard (the §2.1 systemic-failure model) while it
// serves, and every shard's poll trace runs through the incremental
// Definition 2.4 checker. On shutdown (SIGINT/SIGTERM) the server
// prints the store report — totals, latency quantiles, per-shard
// verdict lines — and exits non-zero if any shard's verdict failed,
// which is what the CI soak smoke gates on.
//
// Usage:
//
//	ftss-store [-listen 127.0.0.1:7400] [-shards 16] [-replicas 3]
//	           [-seed 1] [-max-batch 64] [-pipeline 2]
//	           [-corrupt-every 0] [-metrics FILE] [-metrics-interval 0]
//	           [-trace FILE] [-events FILE] [-admin ADDR]
//
// -trace enables causal op tracing (deterministic span IDs, one
// queue/slot/apply span triple per op, containment spans per
// corruption) and writes the sorted span JSONL to FILE on exit —
// ftss-tracev's input. -admin serves the live telemetry plane
// (/metrics, /healthz, /events) and the pprof profiles
// (/debug/pprof/) on one listener while the store runs; -events appends
// shard lifecycle events to FILE and feeds the same stream to the
// admin tail. -metrics-interval streams "# delta" blocks to
// FILE.deltas (FILE from -metrics); the blocks sum to the exit
// snapshot, which obs.SnapshotSum and the soak tests pin.
//
//ftss:conc one goroutine per connection over monitor-guarded shards
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"

	"ftss/internal/admin"
	"ftss/internal/cli"
	"ftss/internal/sim/async"
	"ftss/internal/store"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, cli.Shutdown("ftss-store")); err != nil {
		fmt.Fprintln(os.Stderr, "ftss-store:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer, stop <-chan struct{}) (err error) {
	fs := flag.NewFlagSet("ftss-store", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:7400", "TCP listen address")
	shards := fs.Int("shards", 16, "independent consensus groups")
	replicas := fs.Int("replicas", 3, "replicas per shard")
	seed := fs.Int64("seed", 1, "seed for every shard's engine, batching, and corruption")
	maxBatch := fs.Int("max-batch", 64, "smr batch sealing bound")
	pipeline := fs.Int("pipeline", 2, "smr pipeline depth")
	corruptEvery := fs.Duration("corrupt-every", 0,
		"sim interval between per-shard corruption strikes (0 = off)")
	tel := cli.Register(fs, cli.Spec{
		Metrics:         "write the merged metrics snapshot to this file on exit",
		MetricsInterval: "stream periodic metric delta blocks to the -metrics file + \".deltas\" (0 = off)",
		Trace:           "enable causal op tracing and write span JSONL to this file on exit",
		Events:          "append shard lifecycle events (JSONL) to this file",
		Admin:           "serve the admin plane (/metrics, /healthz, /events, /debug/pprof/) on this address",
		AppendEvents:    true,
		ServeEvents:     true,
	})
	if err := fs.Parse(args); err != nil {
		return err
	}
	defer tel.Close(&err)
	if err := tel.Open(); err != nil {
		return err
	}
	st := store.New(store.Config{
		Shards: *shards, Replicas: *replicas, Seed: *seed,
		MaxBatch: *maxBatch, Pipeline: *pipeline,
		CorruptEvery: async.Time(corruptEvery.Microseconds()),
		Trace:        tel.TraceFile != "",
		Events:       tel.Sink(),
	})
	if err := tel.Start(out, cli.Sources{
		Metrics: st.MetricsSnapshot,
		Trace:   st.WriteTrace,
		Plane: admin.Plane{
			Metrics: st.MetricsSnapshot,
			Health:  func() (bool, []byte) { return healthz(st) },
		},
	}); err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "listening on %s (shards=%d replicas=%d seed=%d)\n",
		ln.Addr(), *shards, *replicas, *seed)

	serveErr := store.NewServer(st).Serve(ln, stop)
	if tel.TraceFile != "" {
		fmt.Fprintf(out, "trace: %d spans, %d collisions -> %s\n",
			len(st.TraceSpans()), st.TraceCollisions(), tel.TraceFile)
	}
	if err := st.Report(out); err != nil {
		return err
	}
	return serveErr
}

// healthz renders the live shard verdict summary for /healthz: one
// line per failing shard plus the pass count, 503 when any shard's
// incremental Definition 2.4 verdict is failing right now.
func healthz(st *store.Store) (bool, []byte) {
	var b []byte
	pass := 0
	for i, err := range st.Verdicts() {
		if err == nil {
			pass++
		} else {
			b = append(b, fmt.Sprintf("shard %03d FAIL: %v\n", i, err)...)
		}
	}
	b = append(b, fmt.Sprintf("verdicts %d/%d pass\n", pass, st.NumShards())...)
	return pass == st.NumShards(), b
}
