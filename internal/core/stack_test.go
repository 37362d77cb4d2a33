package core

import (
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"applab/internal/endpoint"
	"applab/internal/workload"
)

// TestOnTheFlyStackCloseJoinsServer: the loopback OPeNDAP server has the
// daemons' slow-loris timeouts, Close returns only once it stopped
// serving, and no goroutine outlives the stack.
func TestOnTheFlyStackCloseJoinsServer(t *testing.T) {
	opts := workload.DefaultLAIOptions()
	opts.NLat, opts.NLon, opts.Times = 4, 4, 2
	grid := workload.LAIGrid(opts)
	grid.Name = "lai"
	before := runtime.NumGoroutine()

	fly, err := NewOnTheFlyStack(Listing2Mapping, grid)
	if err != nil {
		t.Fatal(err)
	}
	if hs := fly.httpServer; hs.ReadHeaderTimeout != endpoint.DefaultReadHeaderTimeout ||
		hs.WriteTimeout != endpoint.DefaultWriteTimeout || hs.IdleTimeout != endpoint.DefaultIdleTimeout {
		t.Errorf("OPeNDAP server timeouts: read-header %s, write %s, idle %s; want endpoint.NewServer's",
			hs.ReadHeaderTimeout, hs.WriteTimeout, hs.IdleTimeout)
	}
	if _, err := fly.Query(Listing3Query); err != nil {
		t.Fatal(err)
	}
	if err := fly.Close(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1<<20)
	if stacks := string(buf[:runtime.Stack(buf, true)]); strings.Contains(stacks, "net/http.(*Server).Serve(") {
		t.Fatalf("the OPeNDAP server is still serving after Close:\n%s", stacks)
	}
	// The client's keep-alive connection ends once the server closed it.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before the stack", runtime.NumGoroutine(), before)
		}
	}
}
