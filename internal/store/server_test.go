package store

import (
	"net"
	"sync"
	"testing"

	"ftss/internal/detector"
	"ftss/internal/obs"
	"ftss/internal/proc"
	"ftss/internal/wire"
)

// casClient is a minimal closed-loop wire client for tests: one
// request in flight, replies read in order.
type casClient struct {
	conn net.Conn
	buf  []byte
	next uint64
}

func dialCAS(t *testing.T, addr string) *casClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &casClient{conn: conn}
}

func (c *casClient) cas(t *testing.T, key string, old uint64, val int64) (wire.CASReply, proc.ID) {
	t.Helper()
	c.next++
	var err error
	c.buf, err = wire.AppendFrame(c.buf[:0], 0, wire.CASRequest{
		ID: c.next, Old: old, Val: val, Key: key,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.conn.Write(c.buf); err != nil {
		t.Fatal(err)
	}
	from, payload, err := wire.ReadFrame(c.conn)
	if err != nil {
		t.Fatal(err)
	}
	rep, ok := payload.(wire.CASReply)
	if !ok {
		t.Fatalf("reply payload %T, want CASReply", payload)
	}
	if rep.ID != c.next {
		t.Fatalf("reply ID %d, want %d", rep.ID, c.next)
	}
	return rep, from
}

func startServer(t *testing.T, st *Store) (addr string, stopServe func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	errc := make(chan error, 1)
	go func() { errc <- NewServer(st).Serve(ln, stop) }()
	var once sync.Once
	stopServe = func() {
		once.Do(func() {
			close(stop)
			if err := <-errc; err != nil {
				t.Errorf("Serve: %v", err)
			}
		})
	}
	t.Cleanup(stopServe)
	return ln.Addr().String(), stopServe
}

func TestServerCASOverTCP(t *testing.T) {
	st := New(Config{Shards: 4, Seed: 21, MaxBatch: 8})
	addr, stopServe := startServer(t, st)

	c := dialCAS(t, addr)
	rep, from := c.cas(t, "alpha", 0, 100)
	if !rep.OK || rep.Version != 1 || rep.Val != 100 {
		t.Fatalf("first cas: %+v", rep)
	}
	if want := proc.ID(st.ShardFor("alpha")); from != want {
		t.Fatalf("reply sender %v, want shard %v", from, want)
	}
	if rep, _ = c.cas(t, "alpha", 1, 200); !rep.OK || rep.Version != 2 {
		t.Fatalf("second cas: %+v", rep)
	}
	// Stale CAS: rejected, reply carries the live register.
	if rep, _ = c.cas(t, "alpha", 1, 300); rep.OK || rep.Version != 2 || rep.Val != 200 {
		t.Fatalf("stale cas: %+v", rep)
	}

	// A second client shares the replicated state.
	c2 := dialCAS(t, addr)
	if rep, _ = c2.cas(t, "alpha", 2, 400); !rep.OK || rep.Version != 3 {
		t.Fatalf("cross-client cas: %+v", rep)
	}

	stopServe()
	if err := st.Report(&discard{}); err != nil {
		t.Fatalf("verdicts after serving: %v", err)
	}
	requireNoJumps(t, st)
}

func TestServerConcurrentClients(t *testing.T) {
	st := New(Config{Shards: 4, Seed: 22, MaxBatch: 8})
	addr, stopServe := startServer(t, st)

	const clients, opsPer = 6, 20
	var wg sync.WaitGroup
	wg.Add(clients)
	oks := make([]int, clients)
	for i := 0; i < clients; i++ {
		go func(i int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			c := &casClient{conn: conn}
			ver := map[string]uint64{}
			keys := []string{"a", "b", "c", "d", "e"}
			for n := 0; n < opsPer; n++ {
				k := keys[(i+n)%len(keys)]
				rep, _ := c.cas(t, k, ver[k], int64(i*1000+n))
				ver[k] = rep.Version // reply doubles as a versioned read
				if rep.OK {
					oks[i]++
				}
			}
		}(i)
	}
	wg.Wait()
	stopServe()

	total := 0
	for _, n := range oks {
		total += n
	}
	if total == 0 {
		t.Fatal("no CAS ever succeeded under contention")
	}
	if err := st.Report(&discard{}); err != nil {
		t.Fatalf("verdicts after concurrent serving: %v", err)
	}
	for i := 0; i < st.NumShards(); i++ {
		if p := st.Shard(i).Pending(); p != 0 {
			t.Fatalf("shard %d left %d ops pending", i, p)
		}
	}
	requireNoJumps(t, st)
}

func TestServerRejectsNonCASFrames(t *testing.T) {
	st := New(Config{Shards: 1, Seed: 23})
	addr, _ := startServer(t, st)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	buf, err := wire.AppendFrame(nil, 0, detector.Heartbeat{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}
	// The server drops the connection without replying.
	if _, _, err := wire.ReadFrame(conn); err == nil {
		t.Fatal("server answered a non-CAS frame")
	}
	requireNoJumps(t, st)
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// TestServerTracePassthrough: a traced request's context survives the
// wire round trip — the reply frame echoes it, and the op's server-side
// spans carry it as their parent. An untraced request on the same
// connection gets a plain (unflagged) reply.
func TestServerTracePassthrough(t *testing.T) {
	st := New(Config{Shards: 2, Seed: 24, Trace: true})
	addr, stopServe := startServer(t, st)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	ctx := uint64(obs.DeriveSpanID(7, 0, 0))
	buf, err := wire.AppendFrameTrace(nil, 0, ctx, wire.CASRequest{ID: 1, Old: 0, Val: 5, Key: "t"})
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
	if echoed != ctx {
		t.Fatalf("reply trace %#x, want %#x", echoed, ctx)
	}
	if rep := payload.(wire.CASReply); !rep.OK || rep.ID != 1 {
		t.Fatalf("traced cas reply: %+v", rep)
	}

	buf, err = wire.AppendFrame(buf[:0], 0, wire.CASRequest{ID: 2, Old: 1, Val: 6, Key: "t"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}
	if _, echoed, _, err = wire.ReadFrameTrace(conn); err != nil || echoed != 0 {
		t.Fatalf("untraced request echoed trace %#x, err %v", echoed, err)
	}

	stopServe()
	linked := 0
	for _, sp := range st.TraceSpans() {
		if sp.Parent == obs.SpanID(ctx) {
			linked++
		}
	}
	if linked != 3 {
		t.Fatalf("server spans linked to the wire context = %d, want 3", linked)
	}
	requireNoJumps(t, st)
}
