package main

import (
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"ftss/internal/obs"
	"ftss/internal/store"
	"ftss/internal/wire"
)

// serveEnv is one serve episode's set-up: a fresh store served on
// loopback, the client ends of its connections, and their key streams.
type serveEnv struct {
	st      *store.Store
	conns   []net.Conn
	streams [][]string
	stop    chan struct{}
	// served yields once the server side has returned: Serve's error
	// when untraced, nil once every traced handler has returned.
	served chan error
}

// setupServe builds an episode. With tr nil the store is served by
// store.Server; otherwise by tr's handler.
func setupServe(w spec, seed int64, names []string, tr *tracer) (*serveEnv, error) {
	env := &serveEnv{
		st:     store.New(w.storeConfig(seed)),
		stop:   make(chan struct{}),
		served: make(chan error, 1), // one result, read once in close
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if tr == nil {
		sv := store.NewServer(env.st)
		go func() { env.served <- sv.Serve(ln, env.stop) }()
	} else {
		go func() { env.served <- tr.accept(env.st, ln, env.stop) }()
	}
	for c := 0; c < serveConns; c++ {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			env.close()
			return nil, err
		}
		env.conns = append(env.conns, conn)
		env.streams = append(env.streams, keyStream(names, w.opsPerConn, seed+int64(c)+1))
	}
	return env, nil
}

// close hangs up every client connection, which ends each server-side
// connection loop at its next read, then stops the server and waits
// for it.
func (env *serveEnv) close() error {
	for _, c := range env.conns {
		c.Close()
	}
	close(env.stop)
	return <-env.served
}

// clientOp is one traced op as its client saw it.
type clientOp struct {
	span               obs.SpanID
	episode, conn, seq int
	sent, recv         time.Time
	reqBytes           int
}

// clientRun is one connection's share of an episode.
type clientRun struct {
	attempted int
	done      []completion
	led       *ledger
	ops       []clientOp // traced only
}

// runClient drives one closed-loop connection through its key stream,
// from start until the stream ends or the deadline passes. Each reply
// is checked;
// the session remembers the last version each key showed it, which is
// both its next CAS's expected version and the floor a later reply on
// that key must not go below.
func runClient(conn io.ReadWriter, c int, stream []string, start, deadline time.Time, ids *spanSource) *clientRun {
	cr := &clientRun{done: make([]completion, 0, len(stream)), led: newLedger()}
	sess := make(map[string]uint64)
	var buf []byte
	for n, key := range stream {
		if !time.Now().Before(deadline) {
			break
		}
		req := wire.CASRequest{ID: uint64(c)<<32 | uint64(n), Old: sess[key], Val: int64(c)<<32 | int64(n), Key: key}
		span := ids.next(c, n)
		var err error
		buf, err = wire.AppendFrameTrace(buf[:0], 0, uint64(span), req)
		if err != nil {
			cr.led.fail(1, "encode: %v", err)
			break
		}
		cr.attempted++
		sent := time.Now()
		if _, err := conn.Write(buf); err != nil {
			cr.led.fail(1, "op %d: write: %v", n, err)
			break
		}
		_, _, payload, err := wire.ReadFrameTrace(conn)
		recv := time.Now()
		if err != nil {
			cr.led.fail(1, "op %d: no reply (unapplied or dropped): %v", n, err)
			break
		}
		rep, ok := payload.(wire.CASReply)
		if !ok {
			cr.led.fail(1, "op %d: reply payload %T", n, payload)
			break
		}
		done := completion{lat: recv.Sub(sent), at: recv.Sub(start)}
		if ids != nil {
			cr.ops = append(cr.ops, clientOp{span: span, episode: ids.episode, conn: c, seq: n, sent: sent, recv: recv, reqBytes: len(buf)})
		}
		switch err := checkReply(req, rep); {
		case err != nil:
			cr.led.fail(1, "op %d: %v", n, err)
		case rep.Version < sess[key]:
			cr.led.fail(1, "op %d: %s went back from v%d to v%d", n, key, sess[key], rep.Version)
		default:
			sess[key] = rep.Version
			cr.led.reply(key, rep.OK, rep.Version)
			done.write = rep.OK
		}
		cr.done = append(cr.done, done)
	}
	return cr
}

// spanSource derives traced ops' span IDs; a nil source leaves every
// op untraced (zero span, untraced wire frames).
type spanSource struct {
	seed    int64
	episode int
}

func (s *spanSource) next(conn, n int) obs.SpanID {
	if s == nil {
		return 0
	}
	return obs.DeriveSpanID(s.seed, uint64(s.episode)<<8|uint64(conn), uint64(n))
}

// runServe runs closed-loop serve episodes until seconds of measured
// wall time have passed. A short untraced warm-up episode comes first:
// its ops are checked but not measured.
func runServe(w spec, seed int64, seconds float64, phase int, tr *tracer) (*runResult, error) {
	names := keyNames(w.keys)
	res := &runResult{led: newLedger()}
	for i := 0; i < warmSetups; i++ {
		t0 := time.Now()
		env, err := setupServe(w, episodeSeed(seed, phase, -1-i), names, tr)
		if err != nil {
			return nil, err
		}
		res.setup = append(res.setup, time.Since(t0).Seconds())
		if err := env.close(); err != nil {
			return nil, err
		}
	}
	budget := time.Duration(seconds * float64(time.Second))
	for ep := -1; res.elapsed < budget; ep++ {
		warm := ep < 0
		etr := tr
		if warm {
			etr = nil
		}
		t0 := time.Now()
		env, err := setupServe(w, episodeSeed(seed, phase, ep), names, etr)
		if err != nil {
			return nil, err
		}
		res.setup = append(res.setup, time.Since(t0).Seconds())

		var ids *spanSource
		if etr != nil {
			ids = &spanSource{seed: seed, episode: ep}
		}
		runs := make([]*clientRun, serveConns)
		start := time.Now()
		deadline := start.Add(budget - res.elapsed)
		var wg sync.WaitGroup
		wg.Add(serveConns)
		for c := 0; c < serveConns; c++ {
			stream := env.streams[c]
			if warm {
				stream = stream[:serveWarmOps]
			}
			go func(c int) {
				defer wg.Done()
				runs[c] = runClient(env.conns[c], c, stream, start, deadline, ids)
			}(c)
		}
		wg.Wait()
		elapsed := time.Since(start)
		if err := env.close(); err != nil {
			return nil, fmt.Errorf("episode %d: server: %w", ep, err)
		}

		led := newLedger()
		for _, cr := range runs {
			res.attempted += cr.attempted
			led.merge(cr.led)
		}
		led.settle(env.st)
		if warm {
			res.led.mergeFailures(led)
			continue
		}
		res.elapsed += elapsed
		var done []completion
		for _, cr := range runs {
			done = append(done, cr.done...)
			if tr != nil {
				tr.client = append(tr.client, cr.ops...)
			}
		}
		if tr != nil {
			tr.endEpisode()
		}
		res.completed(done, w.rateBlock)
		res.led.merge(led)
		res.episode(env.st)
	}
	return res, nil
}
