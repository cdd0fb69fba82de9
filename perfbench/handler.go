package main

import (
	"fmt"
	"net"
	"sync"
	"time"

	"ftss/internal/obs"
	"ftss/internal/proc"
	"ftss/internal/sim/async"
	"ftss/internal/store"
	"ftss/internal/wire"
)

// tracer is the traced run's server side and span book. Its handler
// replaces store.Server's connection loop only: it makes the same
// public calls in the same order (ReadFrameTrace, ShardFor, Shard,
// Submit, DriveAll, Result, AppendFrameTrace, Write) and stamps the
// wall clock between them. The two read-only Shard.Now calls around
// DriveAll are its only additions; they give each drive's sim time.
//
// Stamps are kept in memory as raw times and turned into obs spans
// only when the run ends, so tracing costs a clock read per boundary.
type tracer struct {
	epoch time.Time
	seed  int64

	mu sync.Mutex
	//ftss:guardedby mu
	epOps []serverOp // the current episode's ops, from every handler

	// The rest is written only between episodes, by the run's goroutine.
	server []serverOp
	client []clientOp
	// bulkDrives, shardDriveMs and bulkSubmits are the bulk workload's
	// per-shard drives, their wall ms per episode, and per-op submit
	// times.
	bulkDrives   []shardDrive
	shardDriveMs [][]float64
	bulkSubmits  []int64
	containment  *reconvergeSink
}

func newTracer(seed int64) *tracer {
	return &tracer{epoch: time.Now(), seed: seed, containment: &reconvergeSink{}}
}

// serverOp is one op's stamps on the server side.
type serverOp struct {
	span  obs.SpanID
	shard int
	// Wall stamps in order: previous reply written (or connection
	// accepted), first read of this frame returned, frame decoded,
	// submit start/end, drive start/end, result read, reply encoded,
	// reply written.
	last, first, read, sub0, sub1, drive0, drive1, result, enc, write time.Time
	simBefore, simAfter                                               async.Time
	replyBytes                                                        int
}

// stampReader passes reads straight through to the connection, so the
// handler's syscalls match store.Server's, and stamps the return of
// the first read since the last reset: the moment a frame's first
// bytes were buffered.
type stampReader struct {
	conn  net.Conn
	first time.Time
}

func (r *stampReader) Read(p []byte) (int, error) {
	n, err := r.conn.Read(p)
	if n > 0 && r.first.IsZero() {
		r.first = time.Now()
	}
	return n, err
}

// accept serves connections on ln with the traced handler until stop
// closes, then waits for every handler to return.
func (t *tracer) accept(st *store.Store, ln net.Listener, stop <-chan struct{}) error {
	go func() {
		<-stop
		ln.Close()
	}()
	var wg sync.WaitGroup
	var err error
	for {
		var conn net.Conn
		conn, err = ln.Accept()
		if err != nil {
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			t.serve(st, conn)
		}()
	}
	wg.Wait()
	select {
	case <-stop:
		return nil
	default:
		return err
	}
}

// serve is store.Server.serveConn with stamps.
func (t *tracer) serve(st *store.Store, conn net.Conn) {
	defer conn.Close()
	in := &stampReader{conn: conn}
	var ops []serverOp
	defer func() { t.add(ops) }()
	var buf []byte
	last := time.Now()
	for {
		in.first = time.Time{}
		_, trace, payload, err := wire.ReadFrameTrace(in)
		read := time.Now()
		if err != nil {
			return
		}
		req, ok := payload.(wire.CASRequest)
		if !ok {
			return
		}
		shard := st.ShardFor(req.Key)
		sh := st.Shard(shard)
		op := serverOp{span: obs.SpanID(trace), shard: shard, last: last, first: in.first, read: read}
		op.sub0 = time.Now()
		id := sh.Submit(store.Op{Key: req.Key, Old: req.Old, Val: req.Val, Trace: obs.SpanID(trace)})
		op.sub1 = time.Now()
		op.simBefore = sh.Now()
		op.drive0 = time.Now()
		if err := sh.DriveAll(); err != nil {
			return
		}
		op.drive1 = time.Now()
		op.simAfter = sh.Now()
		res, _ := sh.Result(id)
		op.result = time.Now()
		buf, err = wire.AppendFrameTrace(buf[:0], proc.ID(shard), trace, wire.CASReply{
			ID: req.ID, OK: res.OK, Version: res.Version, Val: res.Val,
		})
		op.enc = time.Now()
		if err != nil {
			return
		}
		if _, err := conn.Write(buf); err != nil {
			return
		}
		op.write = time.Now()
		op.replyBytes = len(buf)
		ops = append(ops, op)
		last = op.write
	}
}

func (t *tracer) add(ops []serverOp) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.epOps = append(t.epOps, ops...)
}

// endEpisode closes a serve episode once its handlers have returned:
// its ops join the run's.
func (t *tracer) endEpisode() {
	t.mu.Lock()
	ops := t.epOps
	t.epOps = nil
	t.mu.Unlock()
	t.server = append(t.server, ops...)
}

// reconvergeSink is the store's event sink in traced runs: it keeps the
// polls-to-reconverge of every shard_reconverge event.
type reconvergeSink struct {
	mu sync.Mutex
	//ftss:guardedby mu
	polls []float64
}

func (s *reconvergeSink) Emit(e obs.Event) {
	if e.Kind != "shard_reconverge" {
		return
	}
	for _, f := range e.Fields {
		if f.K == "polls" {
			s.mu.Lock()
			s.polls = append(s.polls, float64(f.V))
			s.mu.Unlock()
		}
	}
}

func (s *reconvergeSink) samples() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.polls...)
}

// us is a wall stamp as microseconds since the tracer's epoch, the
// clock of every span the benchmark writes.
func (t *tracer) us(at time.Time) uint64 {
	return uint64(at.Sub(t.epoch).Microseconds())
}

// spans renders every recorded op as obs spans sharing its span ID:
// client.rtt on the client, then server.wait, wire.read, store.submit,
// store.drive, store.result, wire.encode and server.write on the
// server. Bulk episodes contribute one store.drive span per shard.
func (t *tracer) spans() *obs.Collector {
	col := obs.NewCollector()
	for _, op := range t.client {
		col.Claim(op.span, fmt.Sprintf("episode%d/conn%d/%d", op.episode, op.conn, op.seq))
		col.Record(obs.Span{ID: op.span, Phase: "client.rtt", P: op.conn, Start: t.us(op.sent), End: t.us(op.recv)})
	}
	for _, op := range t.server {
		phases := []struct {
			phase    string
			from, to time.Time
		}{
			{"server.wait", op.last, op.first},
			{"wire.read", op.first, op.read},
			{"store.submit", op.sub0, op.sub1},
			{"store.drive", op.drive0, op.drive1},
			{"store.result", op.drive1, op.result},
			{"wire.encode", op.result, op.enc},
			{"server.write", op.enc, op.write},
		}
		for _, p := range phases {
			col.Record(obs.Span{ID: op.span, Phase: p.phase, P: op.shard, Start: t.us(p.from), End: t.us(p.to)})
		}
	}
	for _, d := range t.bulkDrives {
		col.Claim(d.span, fmt.Sprintf("episode%d/shard%03d", d.episode, d.shard))
		col.Record(obs.Span{ID: d.span, Phase: "store.drive", P: d.shard, Start: t.us(d.start), End: t.us(d.end)})
	}
	return col
}
