package main

import (
	"flag"
	"fmt"
	"slices"
	"testing"
)

// TestFlags pins every flag's name, type and default: the command line
// changes on purpose, never as a side effect of how the command is built.
func TestFlags(t *testing.T) {
	want := []string{
		"cache-bytes int64=0",
		"cache-ttl time.Duration=0s",
		"cluster string=",
		"cluster-node string=",
		"cluster-repair-every time.Duration=0s",
		"compact-at int=0",
		"data-dir string=",
		"demote-after int=3",
		"drain time.Duration=5s",
		"federate string=",
		"flush-every int=0",
		"load string=",
		"max-fanout int=0",
		"max-inflight int=0",
		"max-intermediate int=0",
		"max-queue int=0",
		"max-rows int=0",
		"member-timeout time.Duration=0s",
		"metrics-addr string=",
		"query string=",
		"query-deadline time.Duration=0s",
		"queue-timeout time.Duration=5s",
		"result-cache int=0",
		"retry-demoted time.Duration=30s",
		"serve string=",
	}
	var got []string
	new(config).flags().VisitAll(func(f *flag.Flag) {
		got = append(got, fmt.Sprintf("%s %T=%s", f.Name, f.Value.(flag.Getter).Get(), f.DefValue))
	})
	if !slices.Equal(got, want) {
		t.Errorf("flags changed:\n got %q\nwant %q", got, want)
	}
}
