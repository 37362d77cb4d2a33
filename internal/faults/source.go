package faults

import (
	"context"
	"sync"

	"applab/internal/rdf"
	"applab/internal/sparql"
)

// Source injects scripted failures in front of a sparql.Source — the
// federation-member analogue of RoundTripper. ConnError and Status steps
// fail the call (MatchErr returns an error; Match returns nil, matching
// how real remote members degrade); Hang blocks until Release; Truncate
// passes through with the triple list cut to KeepBytes entries. A
// pass-through reads Inner with sparql.MatchContext, so an error of
// Inner's own reaches MatchErr.
//
// OnCall, when set, observes every call before its step executes — tests
// use it to count fan-out arrivals deterministically.
type Source struct {
	Inner  sparql.Source
	Script *Script
	OnCall func(s, p, o rdf.Term)

	mu         sync.Mutex
	released   chan struct{}
	isReleased bool
}

// NewSource wraps inner with the script.
func NewSource(inner sparql.Source, script *Script) *Source {
	return &Source{Inner: inner, Script: script, released: make(chan struct{})}
}

func (f *Source) releaseCh() chan struct{} {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.released == nil {
		f.released = make(chan struct{})
	}
	return f.released
}

// Release unblocks every in-flight and future Hang step. Call it from
// test cleanup so abandoned fan-out goroutines exit.
func (f *Source) Release() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.released == nil {
		f.released = make(chan struct{})
	}
	if !f.isReleased {
		close(f.released)
		f.isReleased = true
	}
}

// Match implements sparql.Source; injected failures become empty results
// exactly like a real degraded remote member.
func (f *Source) Match(s, p, o rdf.Term) []rdf.Triple {
	triples, err := f.MatchErr(s, p, o)
	if err != nil {
		return nil
	}
	return triples
}

// MatchErr implements sparql.ErrorSource with the injected error visible.
func (f *Source) MatchErr(s, p, o rdf.Term) ([]rdf.Triple, error) {
	if f.OnCall != nil {
		f.OnCall(s, p, o)
	}
	step := f.Script.Next()
	switch step.Kind {
	case ConnError:
		return nil, &InjectedError{Op: "connection error"}
	case Status:
		return nil, &InjectedError{Op: "endpoint failure"}
	case Hang:
		<-f.releaseCh()
	case Truncate:
		triples, err := sparql.MatchContext(context.Background(), f.Inner, s, p, o)
		if step.KeepBytes < len(triples) {
			triples = triples[:step.KeepBytes]
		}
		return triples, err
	}
	return sparql.MatchContext(context.Background(), f.Inner, s, p, o)
}
