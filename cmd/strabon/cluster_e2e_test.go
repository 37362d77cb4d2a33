package main

// Cluster-mode e2e: three node-mode processes (in-process run() calls)
// plus a coordinator serving the SPARQL endpoint over them, end to end
// through real flags, real TCP, and real HTTP.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestParseClusterGroups(t *testing.T) {
	got, err := parseClusterGroups(" a:1 ,b:2; b:2,c:3 ;c:3,a:1")
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{{"a:1", "b:2"}, {"b:2", "c:3"}, {"c:3", "a:1"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parsed %v, want %v", got, want)
	}
	for _, bad := range []string{"", " ; ", "a:1;;b:2"} {
		if _, err := parseClusterGroups(bad); err == nil {
			t.Fatalf("spec %q accepted", bad)
		}
	}
}

func TestRunClusterEndToEnd(t *testing.T) {
	// Three shard nodes, each a full run() in node mode.
	var nodes []string
	for i := 0; i < 3; i++ {
		addrs, cancel, _ := startRun(t,
			[]string{"-cluster-node", "127.0.0.1:0"}, "cluster-node")
		defer cancel()
		nodes = append(nodes, addrs["cluster-node"])
	}

	// A geometry beside the plain triples: the coordinator must answer
	// GeoSPARQL FILTERs although it never builds a store of its own.
	data := e2eTriples + `<http://example.org/w> <http://www.opengis.net/ont/geosparql#asWKT> "POINT (1 1)"^^<http://www.opengis.net/ont/geosparql#wktLiteral> .
`
	nt := filepath.Join(t.TempDir(), "data.nt")
	if err := os.WriteFile(nt, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	spec := nodes[0] + "," + nodes[1] + ";" + nodes[1] + "," + nodes[2] + ";" + nodes[2] + "," + nodes[0]
	addrs, cancel, result := startRun(t, []string{
		"-cluster", spec,
		"-cluster-repair-every", "50ms",
		"-load", nt,
		"-serve", "127.0.0.1:0",
		"-drain", "5s",
	}, "sparql")
	defer cancel()

	rows := func(query string) int {
		t.Helper()
		resp, err := http.Get("http://" + addrs["sparql"] + "/sparql?query=" + url.QueryEscape(query))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query status = %d", resp.StatusCode)
		}
		if resp.Header.Get("X-Applab-Partial") != "" {
			t.Fatal("healthy cluster answered partial")
		}
		var doc struct {
			Results struct {
				Bindings []map[string]any `json:"bindings"`
			} `json:"results"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		return len(doc.Results.Bindings)
	}
	if n := rows(`SELECT ?s ?o WHERE { ?s <http://example.org/p> ?o }`); n != 2 {
		t.Fatalf("got %d bindings, want 2", n)
	}
	if n := rows(`SELECT ?w WHERE { ?w geo:asWKT ?g .
  FILTER(geof:sfIntersects(?g, "POLYGON((0 0,2 0,2 2,0 2,0 0))"^^geo:wktLiteral)) }`); n != 1 {
		t.Fatalf("GeoSPARQL FILTER: got %d bindings, want 1", n)
	}

	cancel()
	select {
	case err := <-result:
		if err != nil {
			t.Fatalf("coordinator run = %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("coordinator did not shut down")
	}
}

func TestRunClusterBadSpec(t *testing.T) {
	fs := startQuiet(t)
	defer fs()
	if err := run(context.Background(), []string{"-cluster", ";"}, nil); err == nil {
		t.Fatal("empty cluster spec accepted")
	}
}

// TestRunClusterQueryWarnsPartial: a one-shot -query over a cluster
// with one replica group unreachable prints its rows, warns on stderr
// that the answer is partial, and exits 0.
func TestRunClusterQueryWarnsPartial(t *testing.T) {
	addrs, cancel, _ := startRun(t, []string{"-cluster-node", "127.0.0.1:0"}, "cluster-node")
	defer cancel()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	// Load through a one-group cluster while every node is up; the
	// node keeps the triples for the query below.
	nt := filepath.Join(t.TempDir(), "data.nt")
	if err := os.WriteFile(nt, []byte(e2eTriples), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-cluster", addrs["cluster-node"], "-load", nt,
		"-query", `ASK { ?s ?p ?o }`}, nil); err != nil {
		t.Fatal(err)
	}

	var logged bytes.Buffer
	log.SetOutput(&logged)
	err = run(context.Background(), []string{
		"-cluster", addrs["cluster-node"] + ";" + dead,
		"-query", `SELECT ?s ?o WHERE { ?s <http://example.org/p> ?o }`,
	}, nil)
	log.SetOutput(io.Discard)
	if err != nil {
		t.Fatalf("run = %v, want nil", err)
	}
	if !strings.Contains(logged.String(), "WARNING: partial results") {
		t.Fatalf("stderr lacks the partial-results warning:\n%s", logged.String())
	}
}
