// Command opendapd serves datasets over the DAP2-subset OPeNDAP protocol —
// the VITO deployment of the paper's §3.1, locally.
//
// Usage:
//
//	opendapd -addr :8080 -demo                  # synthetic LAI/NDVI/BA300
//	opendapd -addr :8080 -file lai.anc,ndvi.anc # serve encoded datasets
//	opendapd -addr :8080 -demo -latency 50ms    # simulate a WAN link
//	opendapd -addr :8080 -demo -metrics-addr :9090
//
// The server drains in-flight requests on SIGINT/SIGTERM (see -drain).
// With -metrics-addr the request counters are served as Prometheus text
// at /metrics and JSON at /debug/applab.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"applab/internal/admission"
	"applab/internal/drs"
	"applab/internal/endpoint"
	"applab/internal/netcdf"
	"applab/internal/opendap"
	"applab/internal/telemetry"
	"applab/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("opendapd: ")
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], nil); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(2)
		}
		log.Fatal(err)
	}
}

// run is the whole command, factored out of main so tests can drive it:
// ctx cancellation triggers graceful shutdown, and ready (when non-nil)
// receives each listener's name and bound address.
func run(ctx context.Context, args []string, ready func(name, addr string)) error {
	fs := flag.NewFlagSet("opendapd", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", ":8080", "listen address")
		demo        = fs.Bool("demo", false, "publish synthetic Copernicus datasets (lai, ndvi, ba300)")
		files       = fs.String("file", "", "comma-separated dataset files (netcdf binary encoding)")
		latency     = fs.Duration("latency", 0, "simulated per-request latency")
		tokens      = fs.String("tokens", "", "comma-separated user:token pairs; enables data access control")
		metricsAddr = fs.String("metrics-addr", "", "address to serve /metrics (Prometheus text) and /debug/applab (JSON) on")
		drain       = fs.Duration("drain", endpoint.DefaultDrain, "how long in-flight requests may drain on shutdown (0 waits forever)")

		maxInflight  = fs.Int("max-inflight", 0, "max concurrent DAP requests (0 disables admission control)")
		maxQueue     = fs.Int("max-queue", 0, "max requests waiting for a slot; beyond this requests are shed with 503")
		queueTimeout = fs.Duration("queue-timeout", 5*time.Second, "how long a request may wait in the admission queue before eviction (0 waits forever)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	reg := telemetry.NewRegistry()
	srv := opendap.NewServer()
	srv.Latency = *latency
	srv.Metrics = reg
	if *tokens != "" {
		ac := opendap.NewAccessControl()
		for _, pair := range strings.Split(*tokens, ",") {
			user, token, ok := strings.Cut(strings.TrimSpace(pair), ":")
			if !ok || user == "" || token == "" {
				return fmt.Errorf("bad -tokens entry %q (want user:token)", pair)
			}
			ac.Register(token, user)
			log.Printf("registered user %s", user)
		}
		srv.Auth = ac
	}

	if *demo {
		for _, spec := range []struct {
			name, varName string
			seed          int64
		}{
			{"lai", "LAI", 42}, {"ndvi", "NDVI", 43}, {"ba300", "BA", 44},
		} {
			opts := workload.DefaultLAIOptions()
			opts.Name, opts.VarName, opts.Seed = spec.name, spec.varName, spec.seed
			ds := drs.AutoAugment(workload.LAIGrid(opts))
			srv.Publish(ds)
			log.Printf("published synthetic dataset %s (variable %s)", spec.name, spec.varName)
		}
	}
	for _, path := range strings.Split(*files, ",") {
		path = strings.TrimSpace(path)
		if path == "" {
			continue
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		ds, err := netcdf.Read(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %v", path, err)
		}
		srv.Publish(ds)
		log.Printf("published %s from %s", ds.Name, path)
	}

	var metricsDone chan error
	if *metricsAddr != "" {
		mln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return err
		}
		if ready != nil {
			ready("metrics", mln.Addr().String())
		}
		log.Printf("metrics on http://%s/metrics (JSON at /debug/applab)", mln.Addr())
		msrv := endpoint.NewServer(telemetry.NewHandler(reg))
		metricsDone = make(chan error, 1)
		go func() { metricsDone <- endpoint.ServeGraceful(ctx, msrv, mln, *drain, nil) }()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if ready != nil {
		ready("dap", ln.Addr().String())
	}
	log.Printf("OPeNDAP server on %s (try /catalog, /<name>.dds, /<name>.das, /<name>.ncml, /<name>.dods?VAR)", ln.Addr())
	var handler http.Handler = srv
	if *maxInflight > 0 {
		ctrl := &admission.Controller{
			MaxInflight:  *maxInflight,
			MaxQueue:     *maxQueue,
			QueueTimeout: *queueTimeout,
			Metrics:      reg,
		}
		handler = ctrl.Middleware(handler)
		log.Printf("admission control: %d inflight, %d queued, %s queue timeout",
			*maxInflight, *maxQueue, *queueTimeout)
	}
	hsrv := endpoint.NewServer(handler)
	err = endpoint.ServeGraceful(ctx, hsrv, ln, *drain, nil)
	if metricsDone != nil {
		if merr := <-metricsDone; err == nil {
			err = merr
		}
	}
	return err
}
