// Command obda answers GeoSPARQL queries over virtual RDF graphs defined
// by Ontop-style mappings, with relational sources served by the MadIS
// backend and the opendap virtual table — the Ontop-spatial role in the
// App Lab stack.
//
// Usage:
//
//	obda -mapping listing2.obda -opendap http://localhost:8080 \
//	     -query 'SELECT ?s ?lai WHERE { ?s lai:lai ?lai }'
//	obda -mapping listing2.obda -opendap http://localhost:8080 \
//	     -serve :7861 -result-cache 256 -cache-ttl 10m       # SPARQL endpoint
//
// Freshness is the mapping's cache window, opendap(url, w): a repeat
// inside it makes no upstream call, and past it one conditional request
// revalidates the product. -serve-stale answers from an expired window
// while the upstream is down.
//
// The endpoint and the metrics server drain in-flight requests for
// endpoint.DefaultDrain on SIGINT/SIGTERM.
package main

import (
	"context"
	"flag"
	"log"
	"os"

	"applab/internal/core"
)

func main() { core.Main("obda", run) }

// config is the command line: the serving and OPeNDAP settings plus what
// the command reads.
type config struct {
	core.Options
	mapping, opendap, query string
}

func (c *config) flags() *flag.FlagSet {
	c.Options = core.Defaults()
	fs := flag.NewFlagSet("obda", flag.ContinueOnError)
	fs.StringVar(&c.mapping, "mapping", "", "mapping file (Ontop native syntax)")
	fs.StringVar(&c.opendap, "opendap", "", "OPeNDAP server base URL for the opendap virtual table")
	fs.StringVar(&c.query, "query", "", "GeoSPARQL query")
	fs.StringVar(&c.Addr, "serve", "", "address to serve a SPARQL endpoint over the virtual graph on (e.g. :7861)")

	fs.IntVar(&c.CacheEntries, "result-cache", 0, "text-keyed result cache capacity in entries for -serve (0 disables); cache hits skip mapping execution entirely")
	fs.DurationVar(&c.CacheTTL, "cache-ttl", 0, "result-cache entry lifetime; match the mapping's cache window (e.g. 10m for Listing 2) so upstream changes inside the window stay invisible for exactly as long as the window cache would hide them anyway")
	fs.Int64Var(&c.CacheBytes, "cache-bytes", 0, "result-cache byte budget; entry cost is the encoded answer size (0 = entry-count bound only)")

	fs.DurationVar(&c.Timeout, "timeout", c.Timeout, "per-request OPeNDAP deadline (0 disables)")
	fs.IntVar(&c.Retries, "retries", c.Retries, "max OPeNDAP retries after the first attempt (idempotent GETs only)")
	fs.IntVar(&c.BreakerFailures, "breaker-failures", c.BreakerFailures, "consecutive OPeNDAP failures before the circuit opens (0 disables the breaker)")
	fs.DurationVar(&c.BreakerCooldown, "breaker-cooldown", c.BreakerCooldown, "how long an open circuit waits before a half-open probe")
	fs.BoolVar(&c.ServeStale, "serve-stale", false, "serve stale cached OPeNDAP windows when the upstream is down")

	fs.DurationVar(&c.Limits.Deadline, "query-deadline", 0, "wall-clock budget for the query, including mapping execution (0 disables)")
	fs.IntVar(&c.Limits.MaxRows, "max-rows", 0, "cap on final result rows (0 disables)")
	fs.IntVar(&c.Limits.MaxIntermediate, "max-intermediate", 0, "cap on intermediate solution rows examined (0 disables)")

	fs.StringVar(&c.MetricsAddr, "metrics-addr", "", "address to serve /metrics and /debug/applab on while the query runs; the final Prometheus text is also dumped to stderr")
	return fs
}

// run is the whole command (see core.Main); ready tells tests the
// listeners' bound addresses.
func run(ctx context.Context, args []string, ready func(name, addr string)) error {
	var c config
	fs := c.flags()
	if err := fs.Parse(args); err != nil {
		return err
	}
	if c.mapping == "" || (c.query == "" && c.Addr == "") {
		fs.Usage()
		return core.ErrUsage
	}
	doc, err := os.ReadFile(c.mapping)
	if err != nil {
		return err
	}
	reg := core.NewRegistry()
	fly, err := core.NewOnTheFly(c.opendap, string(doc), c.Options, reg)
	if err != nil {
		return err
	}
	defer fly.Close()
	if c.Addr == "" {
		return core.Query(ctx, reg, c.Options, fly.Graph, c.query, ready)
	}
	if c.CacheEntries > 0 && c.CacheTTL == 0 && c.opendap != "" {
		log.Printf("WARNING: -cache-ttl 0 over OPeNDAP: a cache hit revalidates nothing, so an upstream change is seen only once a miss rebuilds the view; set -cache-ttl to bound staleness")
	}
	return core.Serve(ctx, reg, c.Options, fly.Graph, ready)
}
