package admin

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"ftss/internal/obs"
)

func get(t *testing.T, url string) (int, []byte) {
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

func TestPlaneEndpoints(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("a.ops").Add(7)
	healthy := true
	tail := NewTail(8)
	sink := obs.NewJSONL(tail)

	srv, err := Start("127.0.0.1:0", Plane{
		Metrics: reg.Snapshot,
		Health: func() (bool, []byte) {
			return healthy, []byte(fmt.Sprintf("healthy=%v\n", healthy))
		},
		Tail: tail,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	if code, body := get(t, base+"/metrics"); code != 200 || !bytes.Equal(body, reg.Snapshot()) {
		t.Fatalf("/metrics = %d %q", code, body)
	}
	// The snapshot is live: a counter bump shows on the next scrape.
	reg.Counter("a.ops").Add(3)
	if _, body := get(t, base+"/metrics"); !strings.Contains(string(body), "counter a.ops 10") {
		t.Fatalf("/metrics stale: %q", body)
	}

	if code, body := get(t, base+"/healthz"); code != 200 || string(body) != "healthy=true\n" {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	healthy = false
	if code, _ := get(t, base+"/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("unhealthy /healthz code = %d, want 503", code)
	}

	sink.Emit(obs.Event{Kind: "boot", T: 1, P: -1})
	sink.Emit(obs.Event{Kind: "tick", T: 2, P: 3})
	if _, body := get(t, base+"/events"); string(body) != `{"ev":"boot","t":1}`+"\n"+`{"ev":"tick","t":2,"p":3}`+"\n" {
		t.Fatalf("/events backlog = %q", body)
	}

	// Profiles share the listener with the plane.
	if code, body := get(t, base+"/debug/pprof/cmdline"); code != 200 || len(body) == 0 {
		t.Fatalf("/debug/pprof/cmdline = %d %q", code, body)
	}

	if code, _ := get(t, base+"/nope"); code != 404 {
		t.Fatalf("unknown path code = %d", code)
	}
}

func TestPlaneNilCallbacks(t *testing.T) {
	srv, err := Start("127.0.0.1:0", Plane{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, path := range []string{"/metrics", "/healthz", "/events"} {
		if code, _ := get(t, "http://"+srv.Addr()+path); code != 404 {
			t.Fatalf("%s without a callback = %d, want 404", path, code)
		}
	}
}

func TestEventsFollowStreams(t *testing.T) {
	tail := NewTail(8)
	sink := obs.NewJSONL(tail)
	sink.Emit(obs.Event{Kind: "early", T: 1, P: -1})

	srv, err := Start("127.0.0.1:0", Plane{Tail: tail})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr() + "/events?follow=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	lines := make(chan string)
	go func() {
		buf := make([]byte, 4096)
		var acc []byte
		for {
			n, err := resp.Body.Read(buf)
			acc = append(acc, buf[:n]...)
			for {
				i := bytes.IndexByte(acc, '\n')
				if i < 0 {
					break
				}
				lines <- string(acc[:i+1])
				acc = acc[i+1:]
			}
			if err != nil {
				close(lines)
				return
			}
		}
	}()

	wait := func(want string) {
		t.Helper()
		select {
		case got := <-lines:
			if got != want {
				t.Fatalf("stream line = %q, want %q", got, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for %q", want)
		}
	}
	wait(`{"ev":"early","t":1}` + "\n") // backlog first
	sink.Emit(obs.Event{Kind: "late", T: 2, P: -1})
	wait(`{"ev":"late","t":2}` + "\n") // then the live tail
}

func TestTailRingBound(t *testing.T) {
	tail := NewTail(3)
	for i := 0; i < 5; i++ {
		fmt.Fprintf(tail, "line %d\n", i)
	}
	got := tail.Backlog()
	if len(got) != 3 {
		t.Fatalf("backlog kept %d lines, want 3", len(got))
	}
	for i, want := range []string{"line 2\n", "line 3\n", "line 4\n"} {
		if string(got[i]) != want {
			t.Fatalf("backlog[%d] = %q, want %q", i, got[i], want)
		}
	}
}
