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
		"addr string=:8080",
		"demo bool=false",
		"drain time.Duration=5s",
		"file string=",
		"latency time.Duration=0s",
		"max-inflight int=0",
		"max-queue int=0",
		"metrics-addr string=",
		"queue-timeout time.Duration=5s",
		"tokens string=",
	}
	var got []string
	new(config).flags().VisitAll(func(f *flag.Flag) {
		got = append(got, fmt.Sprintf("%s %T=%s", f.Name, f.Value.(flag.Getter).Get(), f.DefValue))
	})
	if !slices.Equal(got, want) {
		t.Errorf("flags changed:\n got %q\nwant %q", got, want)
	}
}
