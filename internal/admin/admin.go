// Package admin is the live telemetry plane: the one opt-in HTTP
// listener a binary mounts with -admin, serving
//
//	/metrics       — the byte-stable registry snapshot, text/plain
//	/healthz       — a liveness summary: 200 when healthy, 503 when not
//	/events        — the recent JSONL event backlog; ?follow=1 keeps the
//	                 connection open and streams new events as they land
//	/debug/pprof/  — the net/http/pprof profiles, always mounted
//
// The plane owns no state of its own: every endpoint renders through a
// callback the binary supplies, so what /metrics serves mid-run is the
// same merged snapshot the binary writes on exit. Endpoints whose
// callback is nil answer 404, so a binary mounts only what it has.
//
//ftss:conc HTTP handlers run on net/http goroutines over snapshot callbacks and an internally locked tail
package admin

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
)

// Plane is the set of callbacks an admin endpoint serves from.
type Plane struct {
	// Metrics renders the current metrics snapshot (obs.Registry
	// Snapshot bytes). Nil disables /metrics.
	Metrics func() []byte
	// Health renders the health summary and whether it is passing.
	// Nil disables /healthz.
	Health func() (ok bool, summary []byte)
	// Tail is the event backlog /events serves. Nil disables /events.
	Tail *Tail
}

// Handler mounts the plane's endpoints and the pprof profiles on a
// fresh mux.
func (p Plane) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if p.Metrics != nil {
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			w.Write(p.Metrics())
		})
	}
	if p.Health != nil {
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
			ok, summary := p.Health()
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			if !ok {
				w.WriteHeader(http.StatusServiceUnavailable)
			}
			w.Write(summary)
		})
	}
	if p.Tail != nil {
		mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/jsonl; charset=utf-8")
			backlog, sub := p.Tail.subscribe(r.URL.Query().Get("follow") == "1")
			for _, line := range backlog {
				w.Write(line)
			}
			if sub == nil {
				return
			}
			defer p.Tail.unsubscribe(sub)
			fl, _ := w.(http.Flusher)
			if fl != nil {
				fl.Flush()
			}
			for {
				select {
				case line, open := <-sub:
					if !open {
						return
					}
					if _, err := w.Write(line); err != nil {
						return
					}
					if fl != nil {
						fl.Flush()
					}
				case <-r.Context().Done():
					return
				}
			}
		})
	}
	return mux
}

// Server is one live admin endpoint.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Start serves the plane on addr (e.g. "127.0.0.1:7481"). The listener
// is bound synchronously — a taken port fails here, not in a goroutine
// — and serving proceeds in the background until Close.
func Start(addr string, p Plane) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("admin: %w", err)
	}
	srv := &http.Server{Handler: p.Handler()}
	go srv.Serve(ln)
	return &Server{ln: ln, srv: srv}, nil
}

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops serving. In-flight /events followers are cut.
func (s *Server) Close() error { return s.srv.Close() }

// Tail is a bounded backlog of event lines that doubles as an
// io.Writer, so it composes under the binary's JSONL sink:
//
//	sink := obs.NewJSONL(io.MultiWriter(file, tail))
//
// Each Write is one event line (the JSONL sink writes line-atomically).
// The backlog keeps the most recent max lines; /events?follow=1
// subscribers receive every line written after they attach, with slow
// subscribers dropped rather than blocking the emitter.
type Tail struct {
	mu sync.Mutex
	//ftss:guardedby mu
	lines [][]byte
	//ftss:guardedby mu
	start int // ring head
	//ftss:guardedby mu
	count int
	max   int
	//ftss:guardedby mu
	subs map[chan []byte]struct{}
}

// NewTail builds a tail keeping the most recent max lines (default 512
// when max ≤ 0).
func NewTail(max int) *Tail {
	if max <= 0 {
		max = 512
	}
	return &Tail{lines: make([][]byte, max), max: max, subs: make(map[chan []byte]struct{})}
}

// Write appends one event line to the backlog and fans it out to
// followers. It never fails and never blocks on a slow follower.
func (t *Tail) Write(p []byte) (int, error) {
	line := make([]byte, len(p))
	copy(line, p)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.count < t.max {
		t.lines[(t.start+t.count)%t.max] = line
		t.count++
	} else {
		t.lines[t.start] = line
		t.start = (t.start + 1) % t.max
	}
	for sub := range t.subs {
		select {
		case sub <- line:
		default: // follower too slow: drop this line for it
		}
	}
	return len(p), nil
}

// Backlog returns the retained lines, oldest first.
func (t *Tail) Backlog() [][]byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([][]byte, t.count)
	for i := 0; i < t.count; i++ {
		out[i] = t.lines[(t.start+i)%t.max]
	}
	return out
}

// subscribe snapshots the backlog and, when follow is set, registers a
// live subscription channel (nil otherwise).
func (t *Tail) subscribe(follow bool) ([][]byte, chan []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([][]byte, t.count)
	for i := 0; i < t.count; i++ {
		out[i] = t.lines[(t.start+i)%t.max]
	}
	if !follow {
		return out, nil
	}
	sub := make(chan []byte, 64)
	t.subs[sub] = struct{}{}
	return out, sub
}

func (t *Tail) unsubscribe(sub chan []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.subs, sub)
}
