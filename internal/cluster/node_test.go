package cluster

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"ftss/internal/obs"
	"ftss/internal/proc"
)

// freeAddrs reserves n loopback ports by listening and closing. The tiny
// race window between close and the node's own bind is acceptable in a
// test against 127.0.0.1.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs
}

// TestThreeNodeLoopbackRun boots three real nodes — separate transports,
// separate runtimes, loopback TCP between them — with no staged chaos,
// and checks the cluster decides, the event streams parse, and the
// reassembled trace passes Definition 2.4 with a measured budget.
func TestThreeNodeLoopbackRun(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a real loopback cluster")
	}
	const (
		n         = 3
		seed      = int64(11)
		quiet     = 600 * time.Millisecond
		pollEvery = 20 * time.Millisecond
	)
	addrs := freeAddrs(t, n)
	peers := func(self proc.ID) map[proc.ID]string {
		m := make(map[proc.ID]string)
		for p := proc.ID(0); p < n; p++ {
			if p != self {
				m[p] = addrs[p]
			}
		}
		return m
	}

	bufs := make([]*bytes.Buffer, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		bufs[i] = &bytes.Buffer{}
		cfg := NodeConfig{
			ID: proc.ID(i), N: n, Seed: seed,
			Listen: addrs[i], Peers: peers(proc.ID(i)),
			QuietLen:  quiet, // no episodes: horizon = lead = quiet
			PollEvery: pollEvery,
			Events:    obs.NewJSONL(bufs[i]),
		}
		wg.Add(1)
		go func(i int, cfg NodeConfig) {
			defer wg.Done()
			errs[i] = RunNode(cfg, nil, io.Discard)
		}(i, cfg)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}

	var all []PollRecord
	for i, buf := range bufs {
		recs, err := ParsePolls(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("node %d stream: %v", i, err)
		}
		if len(recs) == 0 {
			t.Fatalf("node %d emitted no poll records", i)
		}
		final := recs[len(recs)-1]
		if !final.Cell.OK {
			t.Errorf("node %d never decided: final poll %+v", i, final)
		}
		all = append(all, recs...)
	}

	// Every node's final register must agree.
	finals := make(map[proc.ID]PollRecord)
	for _, r := range all {
		if prev, ok := finals[r.Node]; !ok || r.Index > prev.Index {
			finals[r.Node] = r
		}
	}
	var want fmt.Stringer
	for _, r := range finals {
		if want == nil {
			want = r.Cell
		} else if r.Cell.String() != want.String() {
			t.Fatalf("final registers disagree: %v vs %v", r.Cell, want)
		}
	}

	plan := NodeConfig{N: n, Seed: seed, QuietLen: quiet}.Plan()
	rec := Reassemble(plan, pollEvery, all)
	budget := MeasuredStabilization(rec)
	if budget < 0 {
		t.Fatalf("reassembled trace never satisfies Definition 2.4 (polls=%d)", rec.Polls())
	}
	t.Logf("measured stabilization: %d polls of %d", budget, rec.Polls())
}

// TestRunNodeGracefulStop: a stop signal mid-run ends the poll loop
// early, and the node still writes its final snapshot and node_done.
func TestRunNodeGracefulStop(t *testing.T) {
	addrs := freeAddrs(t, 3)
	var buf bytes.Buffer
	metrics := obs.NewRegistry()
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- RunNode(NodeConfig{
			ID: 0, N: 3, Seed: 3,
			Listen: addrs[0],
			Peers:  map[proc.ID]string{1: addrs[1], 2: addrs[2]},
			// A long quiet horizon the stop must cut short.
			QuietLen:  time.Hour,
			PollEvery: 5 * time.Millisecond,
			Events:    obs.NewJSONL(&buf),
			Metrics:   metrics,
		}, stop, io.Discard)
	}()
	time.Sleep(50 * time.Millisecond)
	close(stop)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("node did not stop within 5s of the signal")
	}
	out := buf.String()
	if !bytes.Contains(buf.Bytes(), []byte(`"ev":"node_done"`)) {
		t.Errorf("no node_done event in stream:\n%s", out)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"stopped":1`)) {
		t.Errorf("node_done does not record the early stop:\n%s", out)
	}
	if !bytes.Contains(metrics.Snapshot(), []byte("counter node.")) {
		t.Error("no final metrics snapshot written")
	}
}

// TestNodeAdminPlane: a node run with AdminAddr serves live /metrics,
// flips /healthz to 200 once its process decides, and tails the event
// stream on /events — all scraped mid-run, not post-mortem.
func TestNodeAdminPlane(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a real loopback cluster")
	}
	const (
		n         = 3
		seed      = int64(11)
		quiet     = 1500 * time.Millisecond
		pollEvery = 20 * time.Millisecond
	)
	addrs := freeAddrs(t, n)
	adminAddr := freeAddrs(t, 1)[0]

	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		cfg := NodeConfig{
			ID: proc.ID(i), N: n, Seed: seed,
			Listen: addrs[i], Peers: map[proc.ID]string{},
			QuietLen:  quiet,
			PollEvery: pollEvery,
		}
		for p := proc.ID(0); p < n; p++ {
			if p != cfg.ID {
				cfg.Peers[p] = addrs[p]
			}
		}
		if i == 0 {
			cfg.AdminAddr = adminAddr
			cfg.Events = obs.NewJSONL(io.Discard)
		}
		wg.Add(1)
		go func(i int, cfg NodeConfig) {
			defer wg.Done()
			errs[i] = RunNode(cfg, nil, io.Discard)
		}(i, cfg)
	}

	get := func(path string) (int, []byte, error) {
		resp, err := http.Get("http://" + adminAddr + path)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return resp.StatusCode, body, err
	}
	// The plane comes up with the node; the node is healthy only once
	// its hosted process decides. Poll until both hold or the horizon
	// passes.
	deadline := time.Now().Add(quiet)
	var healthy bool
	for time.Now().Before(deadline) {
		code, body, err := get("/healthz")
		if err == nil && code == 200 {
			if !bytes.Contains(body, []byte("decided ")) {
				t.Fatalf("healthy body lacks the decision line: %q", body)
			}
			healthy = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !healthy {
		t.Fatal("/healthz never reached 200 before the horizon")
	}
	if code, body, err := get("/metrics"); err != nil || code != 200 ||
		!bytes.Contains(body, []byte("counter node.sent")) {
		t.Fatalf("/metrics = %d %v %q", code, err, body)
	}
	if code, body, err := get("/events"); err != nil || code != 200 ||
		!bytes.Contains(body, []byte(`"ev":"node_poll"`)) {
		t.Fatalf("/events = %d %v %q", code, err, body)
	}

	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
}

func TestRunNodeValidation(t *testing.T) {
	if err := RunNode(NodeConfig{ID: 0, N: 2}, nil, io.Discard); err == nil {
		t.Error("n=2 accepted")
	}
	if err := RunNode(NodeConfig{ID: 5, N: 3}, nil, io.Discard); err == nil {
		t.Error("out-of-range id accepted")
	}
}
