package endpoint

import (
	"context"
	"net"
	"net/http"
	"time"
)

// Slow-loris protection defaults for every daemon HTTP server: a client
// must finish its request headers and consume its response within these
// bounds, so dribbling connections cannot pin server resources outside
// the admission controller's accounting (the controller only sees a
// request once headers are complete).
const (
	// DefaultReadHeaderTimeout bounds how long a connection may take to
	// send its request headers.
	DefaultReadHeaderTimeout = 10 * time.Second
	// DefaultWriteTimeout bounds writing one whole response; generous,
	// because large SPARQL result sets are written in one go.
	DefaultWriteTimeout = 2 * time.Minute
	// DefaultIdleTimeout reaps idle keep-alive connections.
	DefaultIdleTimeout = 2 * time.Minute
	// DefaultDrain is how long in-flight requests may finish after
	// shutdown starts: the default of the daemons' -drain flag, and
	// cmd/obda's fixed drain.
	DefaultDrain = 5 * time.Second
)

// NewServer returns an *http.Server for h hardened with the slow-loris
// timeouts above. All daemons (cmd/strabon, cmd/opendapd, cmd/obda)
// build every listener's server through it.
func NewServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: DefaultReadHeaderTimeout,
		WriteTimeout:      DefaultWriteTimeout,
		IdleTimeout:       DefaultIdleTimeout,
	}
}

// ServeGraceful runs srv on ln until ctx is cancelled, then shuts the
// server down gracefully: the listener closes immediately, in-flight
// requests get up to drain to finish, and connections still open after
// the drain deadline are force-closed. after is the drain clock hook
// (time.After when nil), so the deadline is testable with a fake clock;
// drain <= 0 waits for in-flight requests indefinitely.
//
// The daemons (cmd/strabon, cmd/opendapd, cmd/obda) pair this with
// signal.NotifyContext so SIGINT/SIGTERM drains queries instead of
// dropping them mid-response.
//
// Returns nil after a clean drain, the Shutdown context error when the
// drain deadline forced connections closed, or the Serve error when the
// server failed before any shutdown.
func ServeGraceful(ctx context.Context, srv *http.Server, ln net.Listener, drain time.Duration, after func(time.Duration) <-chan time.Time) error {
	if after == nil {
		after = time.After
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	// Shutdown stops accepting and waits for in-flight requests; its
	// context is cancelled when the drain deadline fires, at which point
	// remaining connections are torn down hard.
	drainCtx, cancelDrain := context.WithCancel(context.Background())
	defer cancelDrain()
	if drain > 0 {
		timer := after(drain)
		go func() {
			select {
			case <-timer:
				cancelDrain()
			case <-drainCtx.Done():
			}
		}()
	}
	err := srv.Shutdown(drainCtx)
	if err != nil {
		// Forced teardown after the drain deadline; the Shutdown error
		// is the one reported.
		_ = srv.Close()
	}
	<-serveErr // Serve has returned http.ErrServerClosed by now
	return err
}
