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
	resp, err := tr.Call(ctx, srv.Addr(), Message{Type: MsgMatchReq, Shard: 0, Patterns: []rdf.Pattern{{P: rdf.NewIRI("http://ex/p0")}}})
	if err != nil || resp.Type != MsgMatchResp || resp.Seq != 1 {
		t.Fatalf("match over tcp: %v %+v", err, resp)
	}
	recs, err := segment.DecodeLogRecords(resp.Records)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || len(recs[0].Triples) != 5 {
		t.Fatalf("match payload: %+v", recs)
	}
	if resp, err := tr.Call(ctx, srv.Addr(), Message{Type: MsgCardReq, Shard: 0, P: rdf.NewIRI("http://ex/p0")}); err != nil || resp.Card != 5 {
		t.Fatalf("card over tcp: %v %+v", err, resp)
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
// costs at most 26 allocations and 4,250 bytes, counted across both
// ends (23 and 3,688 measured). Each message is encoded into and read
// from per-connection buffers, the node matches into its connection's
// triple buffer, and the triples are decoded once, into the slice the
// coordinator returns.
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
	if allocs > 26 || bytes > 4250 {
		t.Fatalf("routed 8-triple read costs %.1f allocs and %.0f bytes, ceiling 26 and 4250", allocs, bytes)
	}
}

// TestBatchedReadAllocations: a 64-pattern routed batch over TCP — one
// request carrying every pattern, one answer carrying a record per
// pattern, decoded straight into refs — costs at most 288 allocations
// and 31,500 bytes across both ends (249 and 27,419 measured), where 64
// single routed reads of the same one-triple subjects cost about 1,080
// allocations and 79 KB. What is left is per pattern: the node's
// decoded subject, and the coordinator's decoded subject and object
// strings and the term block holding them; the predicate, repeated
// from the record before, is shared.
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
	pats := make([]rdf.Pattern, 64)
	ts := make([]rdf.Triple, 64)
	for i := range pats {
		s := rdf.NewIRI(testSubjectIRI(i))
		pats[i] = rdf.Pattern{S: s}
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
			if got, err := c.FragmentMatch(ctx, 0, p.S, p.P, p.O); err != nil || len(got) != 1 {
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
	if ba > 288 || bb > 31500 {
		t.Fatalf("64-pattern batch costs %.1f allocs and %.0f bytes, ceiling 288 and 31500", ba, bb)
	}
}
