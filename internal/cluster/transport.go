package cluster

import (
	"context"
	"net"
	"sync"
	"time"
)

// Transport delivers one request to a node and returns its response,
// after running the request's Read on it (Message.Read).
// Implementations: TCPTransport (production), MemNetwork (deterministic
// in-process fabric with fault injection).
type Transport interface {
	Call(ctx context.Context, node string, req Message) (Message, error)
}

// maxConnBuf caps the frame buffers a connection keeps between calls: a
// buffer grown past it (a snapshot, a large fan-out answer) is dropped
// after the call rather than pinned for the connection's lifetime.
const maxConnBuf = 1 << 20

// maxConnPatterns caps the pattern list and the match-answer triples a
// node connection keeps for the next request, like maxConnBuf caps its
// byte buffers.
const maxConnPatterns = 4096

// reuse empties b for the next call, or drops it once its capacity has
// grown past limit.
func reuse[T any](b []T, limit int) []T {
	if cap(b) > limit {
		return nil
	}
	return b[:0]
}

// tcpConn is a pooled connection and the buffer its calls encode their
// request into and read their response into.
type tcpConn struct {
	net.Conn
	buf []byte
}

// roundTrip writes one request frame and reads one response frame,
// both through c.buf.
func (c *tcpConn) roundTrip(req Message) (Message, error) {
	var err error
	if c.buf, err = appendMessage(c.buf[:0], req); err != nil {
		return Message{}, err
	}
	if _, err := c.Write(c.buf); err != nil {
		return Message{}, err
	}
	var resp Message
	resp, c.buf, err = readMessage(c.Conn, c.buf, nil)
	return resp, err
}

// dialTimeout bounds a TCPTransport's connection establishment.
const dialTimeout = 2 * time.Second

// TCPTransport speaks the wire protocol over TCP with a per-address
// connection pool. The node name passed to Call is its dial address.
type TCPTransport struct {
	mu    sync.Mutex
	conns map[string][]*tcpConn
}

// NewTCPTransport returns a transport with an empty pool.
func NewTCPTransport() *TCPTransport {
	return &TCPTransport{conns: map[string][]*tcpConn{}}
}

func (t *TCPTransport) get(addr string) (*tcpConn, error) {
	t.mu.Lock()
	pool := t.conns[addr]
	if n := len(pool); n > 0 {
		c := pool[n-1]
		t.conns[addr] = pool[:n-1]
		t.mu.Unlock()
		return c, nil
	}
	t.mu.Unlock()
	c, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	return &tcpConn{Conn: c}, nil
}

func (t *TCPTransport) put(addr string, c *tcpConn) {
	t.mu.Lock()
	t.conns[addr] = append(t.conns[addr], c)
	t.mu.Unlock()
}

// expired is a deadline long past: setting it fails a blocked read or
// write at once.
var expired = time.Unix(1, 0)

// Call sends a request frame, reads the response frame and runs req.Read
// on it before pooling the connection. A failed exchange closes the
// connection instead, so a half-dead connection cannot poison later
// calls. Cancelling ctx ends the exchange whether or not ctx carries a
// deadline: the connection is closed, never pooled, and Call returns
// ctx.Err() — a replica that accepts and never answers costs a failed
// call, not a goroutine and a connection forever.
func (t *TCPTransport) Call(ctx context.Context, addr string, req Message) (Message, error) {
	c, err := t.get(addr)
	if err != nil {
		return Message{}, err
	}
	dl, _ := ctx.Deadline() // the zero time clears a pooled deadline
	_ = c.SetDeadline(dl)
	stop := func() bool { return true }
	if ctx.Done() != nil {
		stop = context.AfterFunc(ctx, func() { _ = c.SetDeadline(expired) })
	}
	resp, err := c.roundTrip(req)
	if !stop() {
		_ = c.Close()
		return Message{}, ctx.Err()
	}
	if err != nil {
		_ = c.Close()
		return Message{}, err
	}
	if req.Read != nil {
		err = req.Read(resp)
	}
	c.buf = reuse(c.buf, maxConnBuf)
	t.put(addr, c)
	return resp, err
}

// Close drops every pooled connection.
func (t *TCPTransport) Close() {
	t.mu.Lock()
	var conns []*tcpConn
	for _, pool := range t.conns {
		conns = append(conns, pool...)
	}
	t.conns = map[string][]*tcpConn{}
	t.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
}

// NodeServer serves a node's RPCs on a listener.
type NodeServer struct {
	node *Node
	l    net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]bool
	closed bool
	wg     sync.WaitGroup
}

// ServeNode starts serving the node on the listener and returns
// immediately; Close stops the accept loop and severs live connections
// (the blunt instrument the bench uses to kill a node).
func ServeNode(l net.Listener, n *Node) *NodeServer {
	s := &NodeServer{node: n, l: l, conns: map[net.Conn]bool{}}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr reports the listener address.
func (s *NodeServer) Addr() string { return s.l.Addr().String() }

func (s *NodeServer) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.l.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		closed := s.closed
		if !closed {
			s.conns[c] = true
			s.wg.Add(1)
		}
		s.mu.Unlock()
		if closed {
			_ = c.Close()
			return
		}
		go s.serveConn(c)
	}
}

func (s *NodeServer) serveConn(c net.Conn) {
	defer s.wg.Done()
	defer func() {
		_ = c.Close()
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
	}()
	// These buffers live as long as the connection: the request frame, a
	// match request's patterns, a match answer's triples and records
	// (answerBufs), and the response frame.
	var in, out []byte
	var pats patternBufs
	var answer answerBufs
	for {
		req, buf, err := readMessage(c, in, &pats)
		if err != nil {
			return
		}
		resp := s.node.handle(req, &answer)
		frame, err := appendMessage(out, resp)
		if err != nil {
			return
		}
		if _, err := c.Write(frame); err != nil {
			return
		}
		in, out = reuse(buf, maxConnBuf), reuse(frame, maxConnBuf)
		answer.reset()
		pats.reset()
	}
}

// Close stops the server and waits for connection handlers to exit.
func (s *NodeServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.l.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	s.wg.Wait()
	return err
}
