package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"applab/internal/rdf"
	"applab/internal/segment"
	"applab/internal/sparql"
	"applab/internal/strabon"
)

func TestTCPTransportRoundtrip(t *testing.T) {
	n := NewNode("n1")
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeNode(l, n)
	defer srv.Close()

	tr := NewTCPTransport()
	defer tr.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	if resp, err := tr.Call(ctx, srv.Addr(), Message{Type: MsgPingReq}); err != nil || resp.Type != MsgPingResp {
		t.Fatalf("ping: %v %+v", err, resp)
	}
	img := mustRecord(t, segment.LogRecord{Triples: testTriples(5, 0)})
	if resp, err := tr.Call(ctx, srv.Addr(), Message{Type: MsgApplyReq, Shard: 0, Seq: 1, Records: img}); err != nil || !resp.OK {
		t.Fatalf("apply over tcp: %v %+v", err, resp)
	}
	// Connection reuse: a second call on the pooled connection.
	var recs []segment.LogRecord
	read := func(resp Message) error {
		if resp.Type != MsgMatchResp || resp.Seq != 1 {
			return fmt.Errorf("answer %+v", resp)
		}
		var err error
		recs, err = segment.DecodeLogRecords(resp.Records)
		return err
	}
	pat := rdf.PatternRef(rdf.Term{}, rdf.NewIRI("http://ex/p0"), rdf.Term{})
	if _, err := tr.Call(ctx, srv.Addr(), Message{Type: MsgMatchReq, Shard: 0, Patterns: []rdf.Ref{pat}, Read: read}); err != nil {
		t.Fatalf("match over tcp: %v", err)
	}
	if len(recs) != 1 || len(recs[0].Triples) != 5 {
		t.Fatalf("match payload: %+v", recs)
	}
}

func TestTCPTransportServerDown(t *testing.T) {
	n := NewNode("n1")
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeNode(l, n)
	addr := srv.Addr()
	tr := NewTCPTransport()
	tr.DialTimeout = 2 * time.Second
	defer tr.Close()
	ctx := context.Background()
	if _, err := tr.Call(ctx, addr, Message{Type: MsgPingReq}); err != nil {
		t.Fatalf("ping before close: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("server close: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	// The pooled connection is severed; the failed call must not poison
	// the pool, and a fresh dial to the dead address must error too.
	if _, err := tr.Call(ctx, addr, Message{Type: MsgPingReq}); err == nil {
		t.Fatal("call to closed server succeeded")
	}
}

// serveNodes starts n nodes on loopback listeners, each named by its
// address, and stops them when the test ends.
func serveNodes(t *testing.T, n int) []string {
	t.Helper()
	var addrs []string
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := ServeNode(l, NewNode(l.Addr().String()))
		t.Cleanup(func() { _ = srv.Close() })
		addrs = append(addrs, srv.Addr())
	}
	return addrs
}

// TestTCPCluster runs the full coordinator over real TCP loopback: the
// production transport end to end.
func TestTCPCluster(t *testing.T) {
	tr := NewTCPTransport()
	defer tr.Close()
	addrs := serveNodes(t, 3)
	c, err := NewCoordinator(Config{
		Groups:    [][]string{{addrs[0], addrs[1]}, {addrs[1], addrs[2]}, {addrs[2], addrs[0]}},
		Transport: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ts := clusterTriples(20, 0)
	applied, err := c.AddAll(ctx, ts)
	if err != nil || len(applied) != len(ts) {
		t.Fatalf("AddAll over tcp: %d applied, err %v", len(applied), err)
	}
	res, partial, err := c.EvalPartialContext(ctx, qFan)
	if err != nil || partial {
		t.Fatalf("eval over tcp: partial=%v err=%v", partial, err)
	}
	if len(res.Bindings) != 20 {
		t.Fatalf("eval over tcp: %d rows, want 20", len(res.Bindings))
	}
}

// TestTCPCallCancelWithoutDeadline: a replica that accepts the
// connection and reads the request but never answers. Cancelling a
// context that carries no deadline ends the call promptly with the
// context's error; the connection is closed rather than pooled, and
// nothing is left running.
func TestTCPCallCancelWithoutDeadline(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	// One goroutine accepts, reads each request frame's header and holds
	// the connection open without a word.
	received := make(chan struct{})
	served := make(chan struct{})
	var held []net.Conn
	go func() {
		defer close(served)
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			held = append(held, c)
			if _, err := io.ReadFull(c, make([]byte, wireHeaderLen)); err == nil {
				received <- struct{}{}
			}
		}
	}()
	t.Cleanup(func() {
		_ = l.Close()
		<-served
		for _, c := range held {
			_ = c.Close()
		}
	})
	tr := NewTCPTransport()
	defer tr.Close()
	base := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := tr.Call(ctx, addr, Message{Type: MsgPingReq})
			done <- err
		}()
		<-received // the request is on the replica; the call waits for an answer
		cancel()
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("call %d: %v, want context.Canceled", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("call %d: still blocked after its context was cancelled", i)
		}
	}
	tr.mu.Lock()
	pooled := len(tr.conns[addr])
	tr.mu.Unlock()
	if pooled != 0 {
		t.Fatalf("%d interrupted connections pooled, want 0", pooled)
	}
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the calls", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestClusterTCPMatchesMem: the same writes and the chaos harness's
// queries, over the production TCP transport and over the in-memory
// fabric, give order-exact equal answers, and both equal a golden
// store. (The chaos harness itself never encodes a frame.)
func TestClusterTCPMatchesMem(t *testing.T) {
	tr := NewTCPTransport()
	defer tr.Close()
	a := serveNodes(t, 3)
	tcp, err := NewCoordinator(Config{
		Groups:    [][]string{{a[0], a[1]}, {a[1], a[2]}, {a[2], a[0]}},
		Transport: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	mem := newTestCluster(t, nil)
	oracle := strabon.New()
	ctx := context.Background()
	write := func(del bool, ts []rdf.Triple) {
		t.Helper()
		apply := func(c *Coordinator) ([]rdf.Triple, error) {
			if del {
				return c.DeleteAll(ctx, ts)
			}
			return c.AddAll(ctx, ts)
		}
		for _, c := range []*Coordinator{tcp, mem.c} {
			if applied, err := apply(c); err != nil || len(applied) != len(ts) {
				t.Fatalf("write: %d of %d applied: %v", len(applied), len(ts), err)
			}
		}
		if del {
			for _, d := range ts {
				oracle.Delete(d)
			}
		} else {
			oracle.AddAll(ts)
		}
	}
	check := func(stage string) {
		t.Helper()
		for _, q := range chaosQueries() {
			got, partial, err := tcp.EvalPartialContext(ctx, q)
			if err != nil || partial {
				t.Fatalf("%s: tcp %q: partial=%v err=%v", stage, q, partial, err)
			}
			want, partial, err := mem.c.EvalPartialContext(ctx, q)
			if err != nil || partial {
				t.Fatalf("%s: mem %q: partial=%v err=%v", stage, q, partial, err)
			}
			if g, w := orderedResults(got), orderedResults(want); g != w {
				t.Fatalf("%s: %q over tcp differs from the in-memory fabric:\n got:\n%s\nwant:\n%s", stage, q, g, w)
			}
			gold, err := sparql.Eval(oracle, q)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := canonResults(got), canonResults(gold); g != w {
				t.Fatalf("%s: %q diverged from the golden store:\n got:\n%s\nwant:\n%s", stage, q, g, w)
			}
		}
	}
	write(false, clusterTriples(30, 0))
	check("initial")
	write(false, clusterTriples(20, 100))
	write(true, clusterTriples(30, 0)[:15])
	check("after delete")
}

// orderedResults renders results in their delivered order.
func orderedResults(res *sparql.Results) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "bool=%v vars=%v\n", res.Bool, res.Vars)
	for i := range res.Bindings {
		b := res.Binding(i)
		for _, v := range res.Vars {
			sb.WriteString(b[v].Key())
			sb.WriteByte('\x1f')
		}
		sb.WriteByte('\n')
	}
	for _, tr := range res.Graph {
		sb.WriteString(tr.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestRoutedReadAllocations: an 8-triple routed read over TCP — request
// encode, node-side match and answer encode, response read and decode —
// costs at most 26 allocations and 3,100 bytes, counted across both
// ends (25 and 2,904 measured, up to 2,934 under the race detector).
// Each message is encoded into and read from per-connection buffers,
// the node decodes the pattern into its connection's term buffer and
// matches into its triple buffer, and the triples are decoded once,
// straight from the response frame, into the slice the coordinator
// returns. Copying the answer out of the frame before decoding it costs
// 3,690 bytes and trips the ceiling.
func TestRoutedReadAllocations(t *testing.T) {
	tr := NewTCPTransport()
	defer tr.Close()
	a := serveNodes(t, 1)
	c, err := NewCoordinator(Config{Groups: [][]string{{a[0]}}, Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := rdf.NewIRI(testSubjectIRI(7))
	ts := make([]rdf.Triple, 8)
	for i := range ts {
		ts[i] = rdf.NewTriple(s, rdf.NewIRI("http://ex/p"+itoa(i)), rdf.NewInteger(int64(i)))
	}
	if _, err := c.AddAll(ctx, ts); err != nil {
		t.Fatal(err)
	}
	read := func() {
		got, err := c.FragmentMatch(ctx, 0, s, rdf.Term{}, rdf.Term{})
		if err != nil || len(got) != len(ts) {
			t.Fatalf("routed read: %d triples, err %v", len(got), err)
		}
	}
	read() // dial, and size the connection's buffers
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		read()
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / runs
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("routed 8-triple read: %.1f allocs, %.0f bytes", allocs, bytes)
	if allocs > 26 || bytes > 3100 {
		t.Fatalf("routed 8-triple read costs %.1f allocs and %.0f bytes, ceiling 26 and 3100", allocs, bytes)
	}
}

// TestBatchedReadAllocations: a 64-pattern routed batch over TCP — one
// request carrying every pattern, one answer carrying a record per
// pattern, decoded from the response frame straight into refs — costs
// at most 140 allocations and 12,000 bytes across both ends (132 and
// 10,515 measured, up to 11,281 under the race detector), where 64
// single routed reads of the same one-triple subjects cost about 1,200
// allocations and 79 KB. What is left is per pattern: the subject
// string the node decodes, and the object string the coordinator
// decodes. The answer's subject is the pattern's own handle, the
// predicate, repeated from the record before, is shared, and one term
// block, sized from the whole answer, holds the rest. Copying the
// answer out of the frame, decoding the subjects again and regrowing
// the ref slices (249 allocations, 27,419 bytes) trips the ceiling.
func TestBatchedReadAllocations(t *testing.T) {
	tr := NewTCPTransport()
	defer tr.Close()
	a := serveNodes(t, 1)
	c, err := NewCoordinator(Config{Groups: [][]string{{a[0]}}, Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pats := make([]rdf.Ref, 64)
	ts := make([]rdf.Triple, 64)
	for i := range pats {
		s := rdf.NewIRI(testSubjectIRI(i))
		pats[i] = rdf.PatternRef(s, rdf.Term{}, rdf.Term{})
		ts[i] = rdf.NewTriple(s, rdf.NewIRI("http://ex/p0"), rdf.NewInteger(int64(i)))
	}
	if _, err := c.AddAll(ctx, ts); err != nil {
		t.Fatal(err)
	}
	batch := func() {
		answers, err := c.FragmentMatchBatch(ctx, 0, pats)
		if err != nil || len(answers) != len(pats) || len(answers[63]) != 1 {
			t.Fatalf("batched read: %d answers, err %v", len(answers), err)
		}
	}
	singles := func() {
		for _, p := range pats {
			if got, err := c.FragmentMatch(ctx, 0, *p.S, rdf.Term{}, rdf.Term{}); err != nil || len(got) != 1 {
				t.Fatalf("single read: %d triples, err %v", len(got), err)
			}
		}
	}
	cost := func(fn func()) (allocs, bytes float64) {
		fn() // dial, and size the connection's buffers
		const runs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			fn()
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / runs, float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	ba, bb := cost(batch)
	sa, sb := cost(singles)
	t.Logf("64 patterns: one batch %.1f allocs, %.0f bytes; 64 single reads %.1f allocs, %.0f bytes", ba, bb, sa, sb)
	if ba > 140 || bb > 12000 {
		t.Fatalf("64-pattern batch costs %.1f allocs and %.0f bytes, ceiling 140 and 12000", ba, bb)
	}
}

// TestBatchAnswerOutlivesFrame: an answer decoded from a connection's
// frame is the caller's. A batch is read and kept, the same pooled
// connection — its buffer already grown by a larger read — then reads
// a larger answer over the bytes the first one arrived in, and the
// first answer still reads the oracle store's triples, its subjects the
// pattern's own handles.
func TestBatchAnswerOutlivesFrame(t *testing.T) {
	tr := NewTCPTransport()
	defer tr.Close()
	a := serveNodes(t, 1)
	c, err := NewCoordinator(Config{Groups: [][]string{{a[0]}}, Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ts := clusterTriples(60, 0)
	if _, err := c.AddAll(ctx, ts); err != nil {
		t.Fatal(err)
	}
	oracle := strabon.New()
	oracle.AddAll(ts)
	pats := make([]rdf.Ref, 60)
	for i := range pats {
		pats[i] = rdf.PatternRef(rdf.NewIRI(testSubjectIRI(i)), rdf.Term{}, rdf.Term{})
	}
	read := func(pats []rdf.Ref) [][]rdf.Ref {
		answers, err := c.FragmentMatchBatch(ctx, 0, pats)
		if err != nil || len(answers) != len(pats) {
			t.Fatalf("batch of %d: %d answers, err %v", len(pats), len(answers), err)
		}
		return answers
	}
	read(pats) // grow the connection's buffer
	first := read(pats[:5])
	read(pats[5:])
	if n := len(tr.conns[a[0]]); n != 1 {
		t.Fatalf("%d pooled connections, want the one every read reused", n)
	}
	for i, answer := range first {
		want := oracle.Match(pats[i].Terms())
		if len(answer) != len(want) || len(want) != 2 {
			t.Fatalf("pattern %d: %d refs, the oracle has %d triples", i, len(answer), len(want))
		}
		for j, r := range answer {
			if r.S != pats[i].S {
				t.Fatalf("pattern %d, match %d: subject is not the pattern's handle", i, j)
			}
			if w := want[j]; *r.S != w.S || *r.P != w.P || *r.O != w.O {
				t.Fatalf("pattern %d, match %d reads %v %v %v, the oracle %v", i, j, *r.S, *r.P, *r.O, w)
			}
		}
	}
}
