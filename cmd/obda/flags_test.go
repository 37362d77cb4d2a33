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
		"breaker-cooldown time.Duration=10s",
		"breaker-failures int=5",
		"cache-bytes int64=0",
		"cache-ttl time.Duration=0s",
		"mapping string=",
		"max-intermediate int=0",
		"max-rows int=0",
		"metrics-addr string=",
		"opendap string=",
		"promote-after int=0",
		"query string=",
		"query-deadline time.Duration=0s",
		"result-cache int=0",
		"retries int=3",
		"revalidate-every time.Duration=1m0s",
		"serve string=",
		"serve-stale bool=false",
		"timeout time.Duration=30s",
	}
	var got []string
	new(config).flags().VisitAll(func(f *flag.Flag) {
		got = append(got, fmt.Sprintf("%s %T=%s", f.Name, f.Value.(flag.Getter).Get(), f.DefValue))
	})
	if !slices.Equal(got, want) {
		t.Errorf("flags changed:\n got %q\nwant %q", got, want)
	}
}
