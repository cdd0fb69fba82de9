package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"slices"
	"testing"
	"time"

	"ftss/internal/sim/async"
)

func TestQuantileExact(t *testing.T) {
	// 40 samples: 1..36 in scrambled order, plus four ties at 36.
	var xs []float64
	for i := 36; i >= 1; i -= 2 {
		xs = append(xs, float64(i))
	}
	for i := 1; i <= 35; i += 2 {
		xs = append(xs, float64(i))
	}
	xs = append(xs, 36, 36, 36, 36)
	d := newDist(xs)
	for _, c := range []struct {
		q      float64
		want   float64
		beyond int
		refuse bool
	}{
		{q: 0.50, want: 20, beyond: 20}, // rank ceil(20) = 20
		{q: 0.25, want: 10, beyond: 30}, // rank 10
		{q: 0.75, want: 30, beyond: 10}, // rank 30: exactly 10 beyond
		{q: 0.76, beyond: 9, refuse: true},
		{q: 0.99, beyond: 0, refuse: true}, // rank 40 of 40
	} {
		v, beyond, err := d.quantile(c.q)
		if (err != nil) != c.refuse || beyond != c.beyond || (!c.refuse && v != c.want) {
			t.Errorf("quantile(%g) = %g, %d beyond, err %v; want %g, %d beyond, refuse %v",
				c.q, v, beyond, err, c.want, c.beyond, c.refuse)
		}
	}
	if _, _, err := newDist(nil).quantile(0.5); err == nil {
		t.Error("median of no samples was not refused")
	}
}

func TestCompletedBlocks(t *testing.T) {
	var r runResult
	ms := time.Millisecond
	r.completed([]completion{
		{lat: ms, at: 500 * ms},
		{lat: ms, at: 250 * ms, write: true},
		{lat: ms, at: 1000 * ms, write: true},
		{lat: ms, at: 750 * ms},
		{lat: ms, at: 1100 * ms}, // a partial block: no rate
	}, 2)
	if !slices.Equal(r.opsRate, []float64{4, 4}) || !slices.Equal(r.writeRate, []float64{2, 2}) || len(r.lat) != 5 {
		t.Errorf("ops %v writes %v lat %d; want [4 4] [2 2] 5", r.opsRate, r.writeRate, len(r.lat))
	}
}

// TestTracedHandlerParity pins that the traced run measures the shipped
// program: one connection with a fixed seed gets the same reply bytes,
// and leaves the same Store.Report, from the traced handler as from
// store.Server.
func TestTracedHandlerParity(t *testing.T) {
	w := spec{name: "parity", shards: 4, keys: 32, opsPerConn: 300}
	names := keyNames(w.keys)
	serve := func(tr *tracer) (replies, report []byte) {
		env, err := setupServe(w, 7, names, tr)
		if err != nil {
			t.Fatal(err)
		}
		var raw bytes.Buffer
		conn := struct {
			io.Reader
			io.Writer
		}{io.TeeReader(env.conns[0], &raw), env.conns[0]}
		start := time.Now()
		cr := runClient(conn, 0, env.streams[0], start, start.Add(time.Hour), &spanSource{seed: 7})
		if err := env.close(); err != nil {
			t.Fatal(err)
		}
		if len(cr.done) != w.opsPerConn || cr.led.failed != 0 {
			t.Fatalf("%d of %d ops replied, %d failed: %v", len(cr.done), w.opsPerConn, cr.led.failed, cr.led.errs)
		}
		var rep bytes.Buffer
		_ = env.st.Report(&rep) // a failed verdict is reported in the bytes compared below
		return raw.Bytes(), rep.Bytes()
	}
	wantReplies, wantReport := serve(nil)
	tr := newTracer(7)
	gotReplies, gotReport := serve(tr)
	if !bytes.Equal(gotReplies, wantReplies) {
		t.Error("traced handler's reply stream differs from store.Server's")
	}
	if !bytes.Equal(gotReport, wantReport) {
		t.Errorf("Store.Report differs:\ntraced:\n%s\nstore.Server:\n%s", gotReport, wantReport)
	}
	tr.endEpisode()
	if len(tr.server) != w.opsPerConn {
		t.Errorf("traced handler stamped %d ops, want %d", len(tr.server), w.opsPerConn)
	}
}

// TestDriveTracedParity pins the bulk workload's traced fan-out to
// Store.Drive: equal stores end in equal reports.
func TestDriveTracedParity(t *testing.T) {
	w := spec{name: "parity", shards: 4, bulkOps: 1024, corruptEvery: 40 * async.Millisecond}
	report := func(traced bool) []byte {
		env := setupBulk(w, 3, nil)
		for _, op := range env.ops {
			env.st.Submit(op)
		}
		if traced {
			for _, d := range driveTraced(env.st, driveWorkers) {
				if d.err != nil {
					t.Fatal(d.err)
				}
			}
		} else if err := env.st.Drive(driveWorkers); err != nil {
			t.Fatal(err)
		}
		var rep bytes.Buffer
		_ = env.st.Report(&rep)
		return rep.Bytes()
	}
	if want, got := report(false), report(true); !bytes.Equal(got, want) {
		t.Errorf("Store.Report differs:\ntraced:\n%s\nStore.Drive:\n%s", got, want)
	}
}

// TestBenchmarkJSONNames keeps the metric names the final line carries
// equal to those BENCHMARK.json declares, and its workloads among the
// program's (serve-hot runs but is not listed; see README.md).
func TestBenchmarkJSONNames(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return out
	}
	for _, name := range names(b.Workloads) {
		if _, err := lookup(name); err != nil {
			t.Errorf("BENCHMARK.json: %v", err)
		}
	}
	for _, c := range []struct {
		what      string
		got, want []string
	}{
		{"end_to_end", names(b.EndToEnd), e2eNames},
		{"per_layer", names(b.PerLayer), layerNames},
	} {
		if !slices.Equal(c.got, c.want) {
			t.Errorf("BENCHMARK.json %s = %v, program reports %v", c.what, c.got, c.want)
		}
	}
}
