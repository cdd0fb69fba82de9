package main

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ftss/internal/obs"
	"ftss/internal/wire"
)

// addrWriter buffers run's output and reports the listen address once
// the "listening on" line appears.
type addrWriter struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string
	sent bool
}

func newAddrWriter() *addrWriter {
	return &addrWriter{addr: make(chan string, 1)}
}

func (w *addrWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if !w.sent {
		if s := w.buf.String(); strings.Contains(s, "listening on ") {
			rest := s[strings.Index(s, "listening on ")+len("listening on "):]
			if i := strings.IndexAny(rest, " \n"); i > 0 {
				w.addr <- rest[:i]
				w.sent = true
			}
		}
	}
	return len(p), nil
}

func (w *addrWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

func TestServeCASAndReport(t *testing.T) {
	metrics := filepath.Join(t.TempDir(), "metrics.txt")
	out := newAddrWriter()
	stop := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		errc <- run([]string{
			"-listen", "127.0.0.1:0", "-shards", "4", "-seed", "7",
			"-corrupt-every", "50ms", "-metrics", metrics,
		}, out, stop)
	}()
	var addr string
	select {
	case addr = <-out.addr:
	case err := <-errc:
		t.Fatalf("run exited early: %v\n%s", err, out.String())
	case <-time.After(5 * time.Second):
		t.Fatalf("no listen line:\n%s", out.String())
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var ver uint64
	for i := 0; i < 40; i++ {
		buf, err := wire.AppendFrame(nil, 0, wire.CASRequest{
			ID: uint64(i), Old: ver, Val: int64(i), Key: "soak",
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(buf); err != nil {
			t.Fatal(err)
		}
		_, payload, err := wire.ReadFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		rep := payload.(wire.CASReply)
		if !rep.OK || rep.ID != uint64(i) {
			t.Fatalf("op %d: %+v", i, rep)
		}
		ver = rep.Version
	}

	close(stop)
	if err := <-errc; err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	got := out.String()
	if !strings.Contains(got, "verdicts 4/4 pass") {
		t.Fatalf("report missing passing verdicts:\n%s", got)
	}
	if !strings.Contains(got, "ops=40 applied=40") {
		t.Fatalf("report missing op totals:\n%s", got)
	}
	snap, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(snap), "store.all.cas_ok") {
		t.Fatalf("metrics snapshot missing merged counters:\n%s", snap)
	}
}

func TestRunFlagValidation(t *testing.T) {
	if err := run([]string{"-listen", "300.0.0.1:bad"}, &bytes.Buffer{}, nil); err == nil {
		t.Error("bad listen address accepted")
	}
}

// TestAdminPlaneAndDeltas boots the full observability surface — admin
// endpoint, causal tracing, event stream, periodic metric deltas —
// serves load, scrapes the plane mid-run, and pins the exit contracts:
// the delta blocks sum to the exit snapshot and the trace parses with
// every op phase present.
func TestAdminPlaneAndDeltas(t *testing.T) {
	dir := t.TempDir()
	metrics := filepath.Join(dir, "metrics.txt")
	traceF := filepath.Join(dir, "trace.jsonl")
	events := filepath.Join(dir, "events.jsonl")
	out := newAddrWriter()
	stop := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		errc <- run([]string{
			"-listen", "127.0.0.1:0", "-shards", "2", "-seed", "11",
			"-corrupt-every", "40ms", "-admin", "127.0.0.1:0",
			"-metrics", metrics, "-metrics-interval", "50ms",
			"-trace", traceF, "-events", events,
		}, out, stop)
	}()
	var addr string
	select {
	case addr = <-out.addr:
	case err := <-errc:
		t.Fatalf("run exited early: %v\n%s", err, out.String())
	case <-time.After(5 * time.Second):
		t.Fatalf("no listen line:\n%s", out.String())
	}
	s := out.String()
	i := strings.Index(s, "admin plane on ")
	if i < 0 {
		t.Fatalf("no admin line:\n%s", s)
	}
	adminAddr := s[i+len("admin plane on "):]
	adminAddr = adminAddr[:strings.IndexAny(adminAddr, " \n")]

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var ver uint64
	ctx := uint64(0xfeedface)
	for i := 0; i < 30; i++ {
		buf, err := wire.AppendFrameTrace(nil, 0, ctx+uint64(i), wire.CASRequest{
			ID: uint64(i), Old: ver, Val: int64(i), Key: "adm",
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(buf); err != nil {
			t.Fatal(err)
		}
		_, echoed, payload, err := wire.ReadFrameTrace(conn)
		if err != nil {
			t.Fatal(err)
		}
		if echoed != ctx+uint64(i) {
			t.Fatalf("op %d: trace echo %#x", i, echoed)
		}
		ver = payload.(wire.CASReply).Version
	}

	// Mid-load scrape: the plane answers while connections are live.
	code, body := httpGet(t, "http://"+adminAddr+"/metrics")
	if code != 200 || !strings.Contains(string(body), "counter store.all.applied") {
		t.Fatalf("/metrics mid-load = %d:\n%s", code, body)
	}
	if code, body = httpGet(t, "http://"+adminAddr+"/healthz"); code != 200 ||
		!strings.Contains(string(body), "verdicts 2/2 pass") {
		t.Fatalf("/healthz mid-load = %d %q", code, body)
	}

	close(stop)
	if err := <-errc; err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}

	// Delta blocks sum to the exit snapshot, byte for byte.
	exit, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	deltas, err := os.ReadFile(metrics + ".deltas")
	if err != nil {
		t.Fatal(err)
	}
	sum, err := obs.SnapshotSum(nil, deltas)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sum, exit) {
		t.Fatalf("delta sum != exit snapshot:\n%s\nvs\n%s", sum, exit)
	}

	// The trace file parses and covers every op phase.
	tf, err := os.Open(traceF)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	spans, err := obs.ParseSpans(tf)
	if err != nil {
		t.Fatal(err)
	}
	phases := map[string]int{}
	linked := 0
	for _, sp := range spans {
		phases[sp.Phase]++
		if sp.Parent != 0 {
			linked++
		}
	}
	for _, ph := range []string{"store.queue", "store.slot", "store.apply"} {
		if phases[ph] != 30 {
			t.Fatalf("phase %s spans = %d, want 30 (%v)", ph, phases[ph], phases)
		}
	}
	if linked != 3*30 {
		t.Fatalf("spans carrying the wire trace context = %d, want 90", linked)
	}

	// The event stream recorded the corruption lifecycle.
	ev, err := os.ReadFile(events)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(ev), `"ev":"shard_corrupt"`) {
		t.Fatalf("no corruption events in stream:\n%s", ev)
	}
}

func httpGet(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestListenFailureStopsDeltaStream: when the listener cannot bind
// after the delta stream has started, run still stops the ticker and
// closes FILE.deltas on its way out, so the file stops growing.
func TestListenFailureStopsDeltaStream(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	metrics := filepath.Join(t.TempDir(), "metrics.txt")
	if err := run([]string{
		"-listen", ln.Addr().String(), "-shards", "1",
		"-metrics", metrics, "-metrics-interval", "5ms",
	}, &bytes.Buffer{}, nil); err == nil {
		t.Fatal("run listened on an already-bound address")
	}
	before, err := os.ReadFile(metrics + ".deltas")
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	after, err := os.ReadFile(metrics + ".deltas")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("FILE.deltas grew after run returned: %d -> %d bytes", len(before), len(after))
	}
}
