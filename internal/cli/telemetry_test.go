package cli

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"ftss/internal/obs"
)

func parse(t *testing.T, spec Spec, args ...string) *Telemetry {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	tel := Register(fs, spec)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return tel
}

func TestRegisterOnlyRequestedFlags(t *testing.T) {
	for _, tc := range []struct {
		spec Spec
		want []string
	}{
		{Spec{}, nil},
		{Spec{Metrics: "m", Events: "e"}, []string{"events", "metrics"}},
		{Spec{Metrics: "m", Trace: "t", Admin: "a"}, []string{"admin", "metrics", "trace"}},
		{Spec{Admin: "a", ServeEvents: true}, []string{"admin"}},
		{Spec{Metrics: "m", MetricsInterval: "i", Events: "e", Trace: "t", Admin: "a"},
			[]string{"admin", "events", "metrics", "metrics-interval", "trace"}},
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		Register(fs, tc.spec)
		var got []string
		fs.VisitAll(func(f *flag.Flag) {
			got = append(got, f.Name)
			if f.DefValue != "" && f.DefValue != "0s" {
				t.Errorf("%+v: -%s default %q", tc.spec, f.Name, f.DefValue)
			}
			if want := map[string]string{"metrics": "m", "metrics-interval": "i", "events": "e",
				"trace": "t", "admin": "a"}[f.Name]; f.Usage != want {
				t.Errorf("%+v: -%s usage %q, want the spec's", tc.spec, f.Name, f.Usage)
			}
		})
		sort.Strings(got)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%+v registered %v, want %v", tc.spec, got, tc.want)
		}
	}
}

func TestMetricsIntervalNeedsMetrics(t *testing.T) {
	tel := parse(t, Spec{Metrics: "m", MetricsInterval: "i"}, "-metrics-interval", "50ms")
	if err := tel.Open(); err == nil {
		t.Fatal("-metrics-interval without -metrics accepted")
	}
}

// TestTakenAdminPortFailsStart: the plane binds synchronously, so a
// taken port is an error from Start, before the delta stream (or any of
// the binary's work) begins.
func TestTakenAdminPortFailsStart(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	metrics := filepath.Join(t.TempDir(), "metrics.txt")
	tel := parse(t, Spec{Metrics: "m", MetricsInterval: "i", Admin: "a"},
		"-admin", ln.Addr().String(), "-metrics", metrics, "-metrics-interval", "1ms")
	if err := tel.Open(); err != nil {
		t.Fatal(err)
	}
	err = tel.Start(io.Discard, Sources{Metrics: obs.NewRegistry().Snapshot})
	tel.Close(&err)
	if err == nil {
		t.Fatal("Start served on a taken port")
	}
	if _, serr := os.Stat(metrics + ".deltas"); !os.IsNotExist(serr) {
		t.Fatalf("delta stream started despite the bind failure: %v", serr)
	}
}

// TestEventsOpenModeAndTail: -events truncates or appends as the spec
// says, and with ServeEvents the same lines reach the admin /events
// tail, which shares its listener with /debug/pprof/.
func TestEventsOpenModeAndTail(t *testing.T) {
	for _, appendMode := range []bool{false, true} {
		events := filepath.Join(t.TempDir(), "events.jsonl")
		if err := os.WriteFile(events, []byte("old\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		tel := parse(t, Spec{Events: "e", Admin: "a", AppendEvents: appendMode, ServeEvents: true},
			"-events", events, "-admin", "127.0.0.1:0")
		if err := tel.Open(); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := tel.Start(&out, Sources{}); err != nil {
			t.Fatal(err)
		}
		tel.Sink().Emit(obs.Event{Kind: "boot", T: 1, P: -1})
		base := "http://" + strings.TrimSpace(strings.TrimPrefix(out.String(), "admin plane on "))
		for path, want := range map[string]int{"/events": 200, "/debug/pprof/cmdline": 200, "/metrics": 404} {
			resp, err := http.Get(base + path)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != want {
				t.Errorf("%s = %d, want %d", path, resp.StatusCode, want)
			}
			if path == "/events" && string(body) != `{"ev":"boot","t":1}`+"\n" {
				t.Errorf("/events = %q", body)
			}
		}
		var err error
		tel.Close(&err)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := os.ReadFile(events)
		want := `{"ev":"boot","t":1}` + "\n"
		if appendMode {
			want = "old\n" + want
		}
		if string(got) != want {
			t.Errorf("append=%v: events file = %q, want %q", appendMode, got, want)
		}
	}
}

// TestCloseEndsDeltaStream pins the shutdown order of the delta stream
// at a 1ms interval, where a tick racing the shutdown is likely: Close
// joins the ticker before its closing tick, so every snapshot after the
// first one Close takes is Close's own (the closing block, then the
// exit snapshot), the file never changes once Close returns, and the
// blocks sum to the exit snapshot.
func TestCloseEndsDeltaStream(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 100; i++ {
		metrics := filepath.Join(dir, fmt.Sprintf("metrics%d.txt", i))
		tel := parse(t, Spec{Metrics: "m", MetricsInterval: "i"},
			"-metrics", metrics, "-metrics-interval", "1ms")
		reg := obs.NewRegistry()
		ops := reg.Counter("ops")
		var mu sync.Mutex
		var byClose []bool // per snapshot: taken inside Close?
		snap := func() []byte {
			mu.Lock()
			byClose = append(byClose, inClose())
			mu.Unlock()
			return reg.Snapshot()
		}
		err := tel.Open()
		if err == nil {
			err = tel.Start(io.Discard, Sources{Metrics: snap})
		}
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 20; j++ {
			ops.Inc()
			time.Sleep(100 * time.Microsecond)
		}
		tel.Close(&err)
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		calls := append([]bool(nil), byClose...)
		mu.Unlock()
		deltas, _ := os.ReadFile(metrics + ".deltas")
		exit, _ := os.ReadFile(metrics)

		first := len(calls)
		for k, c := range calls {
			if c {
				first = k
				break
			}
		}
		if len(calls)-first != 2 {
			t.Fatalf("run %d: snapshots %v: want the closing block and the exit snapshot last, both by Close", i, calls)
		}
		if blocks := bytes.Count(deltas, []byte("# delta ")); blocks != len(calls)-1 {
			t.Fatalf("run %d: %d blocks for %d ticks", i, blocks, len(calls)-1)
		}
		sum, err := obs.SnapshotSum(nil, deltas)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sum, exit) {
			t.Fatalf("run %d: delta sum != exit snapshot:\n%s\nvs\n%s", i, sum, exit)
		}

		time.Sleep(3 * time.Millisecond)
		again, _ := os.ReadFile(metrics + ".deltas")
		mu.Lock()
		n := len(byClose)
		mu.Unlock()
		if !bytes.Equal(again, deltas) || n != len(calls) {
			t.Fatalf("run %d: delta stream changed after Close", i)
		}
	}
}

// inClose reports whether the caller runs inside Telemetry.Close.
func inClose() bool {
	pc := make([]uintptr, 32)
	frames := runtime.CallersFrames(pc[:runtime.Callers(2, pc)])
	for {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, ".(*Telemetry).Close") {
			return true
		}
		if !more {
			return false
		}
	}
}
