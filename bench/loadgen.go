package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// maxClients is the machine's nproc: the generator never has more
// connections or goroutines issuing work than this.
const maxClients = 2

// httpClient is the generator's only way to the server: one pooled
// transport capped at maxClients connections.
type httpClient struct {
	http *http.Client
	url  string
}

func newHTTPClient(url string) *httpClient {
	tr := &http.Transport{MaxConnsPerHost: maxClients, MaxIdleConnsPerHost: maxClients}
	return &httpClient{http: &http.Client{Transport: tr, Timeout: 30 * time.Second}, url: url}
}

func (c *httpClient) close() { c.http.CloseIdleConnections() }

// get sends one query and reads the whole answer into buf. Anything but
// a complete, undegraded 200 is an error.
func (c *httpClient) get(query string, buf *bytes.Buffer) error {
	resp, err := c.http.Get(c.url + "?query=" + url.QueryEscape(query))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := io.Copy(buf, resp.Body); err != nil {
		return err
	}
	switch {
	case resp.StatusCode != http.StatusOK:
		return fmt.Errorf("status %d: %.200s", resp.StatusCode, buf.String())
	case resp.Header.Get("X-Applab-Partial") != "":
		return fmt.Errorf("partial answer")
	case resp.Header.Get("X-Applab-Degraded") != "":
		return fmt.Errorf("degraded answer")
	}
	return nil
}

func bodyHash(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// phaseResult is what one load phase observed.
type phaseResult struct {
	samples    []time.Duration // latency of each correct request. Closed: send to last byte; open: due time to last byte
	attempted  int
	failed     int
	elapsed    time.Duration
	late       []time.Duration // open phase: how long after it could have, each request left
	backlogMax int             // open phase: most requests due but not yet sent
	firstErr   error
}

func (p *phaseResult) merge(o *phaseResult) {
	p.samples = append(p.samples, o.samples...)
	p.late = append(p.late, o.late...)
	p.attempted += o.attempted
	p.failed += o.failed
	p.backlogMax = max(p.backlogMax, o.backlogMax)
	if p.firstErr == nil {
		p.firstErr = o.firstErr
	}
}

func (p *phaseResult) fail(err error) {
	p.failed++
	if p.firstErr == nil {
		p.firstErr = err
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile is nearest-rank over sorted values; 0 for no values.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	sort.Float64s(out)
	return out
}

// source hands out request indices; every phase of a run draws from the
// same counter, so no index is issued twice.
type source struct {
	stream *stream
	next   atomic.Int64
	probe  func() (query string, ok bool) // mat-ingest: read-your-writes probe
}

// load is one generator goroutine's state.
type load struct {
	cl  *httpClient
	src *source
	chk *checker
	buf bytes.Buffer
	n   int // requests this goroutine issued, for the probe cadence
}

const probeEvery = 20

// one issues the next stream request (or, every probeEvery-th time on
// mat-ingest, a read-your-writes probe) and checks the answer. It
// reports whether the request was a stream request that succeeded and
// so yields a latency sample.
func (l *load) one(res *phaseResult) bool {
	l.n++
	if l.src.probe != nil && l.n%probeEvery == 0 {
		if q, ok := l.src.probe(); ok {
			res.attempted++
			if err := l.cl.get(q, &l.buf); err != nil {
				res.fail(fmt.Errorf("probe: %w", err))
			} else if !bytes.Contains(l.buf.Bytes(), []byte(`"boolean":true`)) {
				res.fail(fmt.Errorf("read-your-writes: acknowledged batch not visible: %s", q))
			}
			return false
		}
	}
	i := int(l.src.next.Add(1) - 1)
	req := l.src.stream.at(i)
	res.attempted++
	if err := l.cl.get(req.query, &l.buf); err != nil {
		res.fail(err)
		return false
	}
	if err := l.chk.observe(i, req, l.buf.Bytes()); err != nil {
		res.fail(err)
		return false
	}
	return true
}

// closedPhase runs clients back-to-back for d: each sends its next
// request when the previous answer is complete.
func closedPhase(cl *httpClient, src *source, chk *checker, clients int, d time.Duration) *phaseResult {
	parts := make([]phaseResult, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := range parts {
		wg.Add(1)
		go func(res *phaseResult) {
			defer wg.Done()
			l := &load{cl: cl, src: src, chk: chk}
			for {
				sent := time.Since(start)
				if sent >= d {
					return
				}
				if l.one(res) {
					res.samples = append(res.samples, time.Since(start)-sent)
				}
			}
		}(&parts[c])
	}
	wg.Wait()
	total := &phaseResult{elapsed: time.Since(start)}
	for i := range parts {
		total.merge(&parts[i])
	}
	return total
}

// openPhase issues requests on a fixed schedule: request k is due at
// k/rate, whatever the server is doing. At most inflight are
// outstanding; a request that finds every slot busy waits, and that wait
// is in its latency, because latency runs from the due time.
func openPhase(cl *httpClient, src *source, chk *checker, inflight int, rate float64, d time.Duration) *phaseResult {
	interval := time.Duration(float64(time.Second) / rate)
	total := int(d / interval)
	var slot atomic.Int64
	parts := make([]phaseResult, inflight)
	start := time.Now()
	var wg sync.WaitGroup
	for c := range parts {
		wg.Add(1)
		go func(res *phaseResult) {
			defer wg.Done()
			l := &load{cl: cl, src: src, chk: chk}
			for {
				free := time.Since(start)
				k := int(slot.Add(1) - 1)
				if k >= total {
					return
				}
				if free > d+drainLimit {
					// The schedule is over and the queue is not draining:
					// what is still owed was never served.
					res.attempted++
					res.fail(fmt.Errorf("request %d of the schedule was still unsent %v after it ended", k, drainLimit))
					continue
				}
				due := time.Duration(k) * interval
				if wait := due - free; wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Since(start)
				// The generator's own lateness: how long after both the
				// schedule and a free slot allowed it the request left.
				res.late = append(res.late, sent-max(due, free))
				res.backlogMax = max(res.backlogMax, int(sent/interval)-k)
				if l.one(res) {
					res.samples = append(res.samples, time.Since(start)-due)
				}
			}
		}(&parts[c])
	}
	wg.Wait()
	out := &phaseResult{elapsed: time.Since(start)}
	for i := range parts {
		out.merge(&parts[i])
	}
	return out
}
