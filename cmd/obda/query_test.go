package main

import (
	"bytes"
	"context"
	"io"
	"log"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"applab/internal/core"
	"applab/internal/opendap"
	"applab/internal/workload"
)

// TestRunQueryForms: a one-shot ASK prints its boolean and a CONSTRUCT
// its triples as N-Triples, not an empty SELECT header and "0 rows".
func TestRunQueryForms(t *testing.T) {
	log.SetOutput(io.Discard)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	opts := workload.DefaultLAIOptions()
	opts.NLat, opts.NLon, opts.Times = 4, 4, 2
	dap := opendap.NewServer()
	dap.Publish(workload.LAIGrid(opts))
	dapHTTP := httptest.NewServer(dap)
	defer dapHTTP.Close()
	mapping := filepath.Join(t.TempDir(), "listing2.obda")
	if err := os.WriteFile(mapping, []byte(core.Listing2Mapping), 0o644); err != nil {
		t.Fatal(err)
	}

	query := func(q string) string {
		t.Helper()
		out, err := os.CreateTemp(t.TempDir(), "stdout")
		if err != nil {
			t.Fatal(err)
		}
		defer out.Close()
		stdout := os.Stdout
		os.Stdout = out
		err = run(context.Background(), []string{"-mapping", mapping, "-opendap", dapHTTP.URL, "-retries", "0", "-query", q}, nil)
		os.Stdout = stdout
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		printed, err := os.ReadFile(out.Name())
		if err != nil {
			t.Fatal(err)
		}
		return string(printed)
	}

	if got := query(`ASK { ?s lai:lai ?lai }`); got != "true\n" {
		t.Errorf("ASK printed %q, want \"true\\n\"", got)
	}
	lines := strings.Split(strings.TrimSuffix(query(`CONSTRUCT { ?s lai:lai ?lai } WHERE { ?s lai:lai ?lai }`), "\n"), "\n")
	if len(lines) != 31 {
		t.Fatalf("CONSTRUCT printed %d lines, want 31 triples (one per positive LAI cell): %q", len(lines), lines)
	}
	for _, l := range lines {
		if !strings.HasPrefix(l, "<") || !strings.Contains(l, "> <http://www.app-lab.eu/lai/lai> ") || !strings.HasSuffix(l, " .") {
			t.Fatalf("CONSTRUCT line %q is not an N-Triples lai:lai statement", l)
		}
	}
}

// TestRunQueryUpstreamDownIsPartial: with the OPeNDAP server
// unreachable, a one-shot query answers the way the served endpoint
// does: an empty partial answer, warned about on stderr, and exit 0.
func TestRunQueryUpstreamDownIsPartial(t *testing.T) {
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := "http://" + ln.Addr().String()
	ln.Close()
	mapping := filepath.Join(t.TempDir(), "listing2.obda")
	if err := os.WriteFile(mapping, []byte(core.Listing2Mapping), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	var logged bytes.Buffer
	log.SetOutput(&logged)
	stdout := os.Stdout
	os.Stdout = out
	err = run(context.Background(), []string{"-mapping", mapping, "-opendap", dead, "-retries", "0",
		"-query", `SELECT ?s ?lai WHERE { ?s lai:lai ?lai }`}, nil)
	os.Stdout = stdout
	if err != nil {
		t.Fatalf("run = %v, want nil", err)
	}
	printed, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	if got := string(printed); got != "s\tlai\n" {
		t.Errorf("printed %q, want the SELECT header and no rows", got)
	}
	if !strings.Contains(logged.String(), "WARNING: partial results") || !strings.Contains(logged.String(), "connection refused") {
		t.Errorf("stderr lacks the partial-results warning naming its cause:\n%s", logged.String())
	}
}
