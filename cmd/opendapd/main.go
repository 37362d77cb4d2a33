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
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"applab/internal/core"
	"applab/internal/drs"
	"applab/internal/netcdf"
	"applab/internal/opendap"
	"applab/internal/telemetry"
	"applab/internal/workload"
)

func main() { core.Main("opendapd", run) }

// config is the command line: the serving settings plus what to publish.
type config struct {
	core.Options
	demo          bool
	files, tokens string
	latency       time.Duration
}

func (c *config) flags() *flag.FlagSet {
	c.Options = core.Defaults()
	fs := flag.NewFlagSet("opendapd", flag.ContinueOnError)
	fs.StringVar(&c.Addr, "addr", ":8080", "listen address")
	fs.BoolVar(&c.demo, "demo", false, "publish synthetic Copernicus datasets (lai, ndvi, ba300)")
	fs.StringVar(&c.files, "file", "", "comma-separated dataset files (netcdf binary encoding)")
	fs.DurationVar(&c.latency, "latency", 0, "simulated per-request latency")
	fs.StringVar(&c.tokens, "tokens", "", "comma-separated user:token pairs; enables data access control")
	fs.StringVar(&c.MetricsAddr, "metrics-addr", "", "address to serve /metrics (Prometheus text) and /debug/applab (JSON) on")
	fs.DurationVar(&c.Drain, "drain", c.Drain, "how long in-flight requests may drain on shutdown (0 waits forever)")

	fs.IntVar(&c.MaxInflight, "max-inflight", 0, "max concurrent DAP requests (0 disables admission control)")
	fs.IntVar(&c.MaxQueue, "max-queue", 0, "max requests waiting for a slot; beyond this requests are shed with 503")
	fs.DurationVar(&c.QueueTimeout, "queue-timeout", c.QueueTimeout, "how long a request may wait in the admission queue before eviction (0 waits forever)")
	return fs
}

// run is the whole command (see core.Main); ready tells tests the
// listeners' bound addresses.
func run(ctx context.Context, args []string, ready func(name, addr string)) error {
	var c config
	if err := c.flags().Parse(args); err != nil {
		return err
	}

	reg := telemetry.NewRegistry()
	srv := opendap.NewServer()
	srv.Latency, srv.Metrics = c.latency, reg
	if c.tokens != "" {
		ac := opendap.NewAccessControl()
		for _, pair := range strings.Split(c.tokens, ",") {
			user, token, ok := strings.Cut(strings.TrimSpace(pair), ":")
			if !ok || user == "" || token == "" {
				return fmt.Errorf("bad -tokens entry %q (want user:token)", pair)
			}
			ac.Register(token, user)
			log.Printf("registered user %s", user)
		}
		srv.Auth = ac
	}

	if c.demo {
		for _, spec := range []struct {
			name, varName string
			seed          int64
		}{
			{"lai", "LAI", 42}, {"ndvi", "NDVI", 43}, {"ba300", "BA", 44},
		} {
			opts := workload.DefaultLAIOptions()
			opts.Name, opts.VarName, opts.Seed = spec.name, spec.varName, spec.seed
			srv.Publish(drs.AutoAugment(workload.LAIGrid(opts)))
			log.Printf("published synthetic dataset %s (variable %s)", spec.name, spec.varName)
		}
	}
	for _, path := range strings.Split(c.files, ",") {
		if path = strings.TrimSpace(path); path == "" {
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
	return core.ServeDAP(ctx, reg, c.Options, srv, ready)
}
