package core

import (
	"bytes"
	"context"
	"errors"
	"log"
	"os"
	"strings"
	"testing"

	"applab/internal/federation"
	"applab/internal/rdf"
	"applab/internal/telemetry"
)

// brokenSource is a member whose every scan fails.
type brokenSource struct{}

func (brokenSource) Match(s, p, o rdf.Term) []rdf.Triple { return nil }
func (brokenSource) MatchErr(s, p, o rdf.Term) ([]rdf.Triple, error) {
	return nil, errors.New("member down")
}

// TestQueryPartialWarningInNameOrder: a one-shot answer over a
// federation with two failing members warns with one line per member,
// in name order on every run.
func TestQueryPartialWarningInNameOrder(t *testing.T) {
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	devNull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devNull.Close()
	stdout := os.Stdout
	os.Stdout = devNull
	defer func() { os.Stdout = stdout }()

	healthy := rdf.NewGraph()
	healthy.Add(rdf.NewTriple(rdf.NewIRI("http://ex.org/s"), rdf.NewIRI("http://ex.org/p"), rdf.NewIRI("http://ex.org/o")))
	fed := federation.New(
		federation.Member{Name: "zulu", Source: brokenSource{}},
		federation.Member{Name: "healthy", Source: healthy},
		federation.Member{Name: "alpha", Source: brokenSource{}})
	for i := 0; i < 20; i++ {
		var logged bytes.Buffer
		log.SetOutput(&logged)
		err := Query(context.Background(), telemetry.NewRegistry(), Options{}, fed, `SELECT ?s WHERE { ?s <http://ex.org/p> ?o }`, nil)
		log.SetOutput(os.Stderr)
		if err != nil {
			t.Fatal(err)
		}
		var members []string
		for _, line := range strings.Split(logged.String(), "\n") {
			if _, rest, ok := strings.Cut(line, "  member "); ok {
				name, _, _ := strings.Cut(rest, ":")
				members = append(members, name)
			}
		}
		if !strings.Contains(logged.String(), "WARNING: partial results") ||
			strings.Join(members, ",") != "alpha,zulu" {
			t.Fatalf("run %d: member lines %q, want alpha then zulu after the warning:\n%s", i, members, logged.String())
		}
	}
}
