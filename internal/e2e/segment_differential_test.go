package e2e

import (
	"net/http/httptest"
	"testing"

	"applab/internal/core"
	"applab/internal/endpoint"
	"applab/internal/federation"
	"applab/internal/madis"
	"applab/internal/obda"
	"applab/internal/opendap"
	"applab/internal/segment"
	"applab/internal/sparql"
	"applab/internal/strabon"
	"applab/internal/workload"
)

// TestSegmentDifferentialWorkflows runs the paper's Listing 3 query
// over all three Figure-1 workflows with the disk-backed segment store
// standing in for the in-memory one, and asserts every stage answers
// identically:
//
//  1. on-the-fly (OPeNDAP -> MadIS virtual table),
//  2. materialized into the seed in-memory store (the oracle),
//  3. materialized into a disk-backed store — queried warm, then again
//     from a cold process that booted off segment footers alone,
//  4. federated, with the COLD disk-backed store as the local member.
func TestSegmentDifferentialWorkflows(t *testing.T) {
	opts := workload.DefaultLAIOptions()
	opts.NLat, opts.NLon, opts.Times = 4, 4, 2
	grid := workload.LAIGrid(opts)
	grid.Name = "lai"

	// Workflow 1: on-the-fly.
	dapSrv := opendap.NewServer()
	dapSrv.Publish(grid)
	dapHTTP := httptest.NewServer(dapSrv)
	defer dapHTTP.Close()
	client := opendap.NewClient(dapHTTP.URL)
	adapter := obda.NewOpendapAdapter(client)
	db := madis.NewDB()
	adapter.Register(db)
	mappings, err := obda.ParseMappings(core.Listing2Mapping)
	if err != nil {
		t.Fatal(err)
	}
	vg := obda.NewVirtualGraph(db, mappings)
	flyRes, err := sparql.Eval(vg, core.Listing3Query)
	if err != nil {
		t.Fatal(err)
	}
	oracle := canonical(t, flyRes)
	if len(oracle) == 0 {
		t.Fatal("on-the-fly workflow returned nothing")
	}

	// Workflow 2: materialized, seed in-memory store.
	triples, err := workload.LAIGridToRDF(grid, "LAI")
	if err != nil {
		t.Fatal(err)
	}
	mem := strabon.New()
	mem.AddAll(triples)
	memRes, err := mem.Query(core.Listing3Query)
	if err != nil {
		t.Fatal(err)
	}
	if !equalRows(oracle, canonical(t, memRes)) {
		t.Fatalf("in-memory materialized workflow diverged from on-the-fly")
	}

	// Workflow 3: materialized, disk-backed. The tiny flush threshold
	// spreads the dataset over several runs plus a memtable tail.
	dir := t.TempDir()
	disk, err := strabon.Open(dir, segment.Options{FlushEvery: 64, CompactAt: 3})
	if err != nil {
		t.Fatal(err)
	}
	disk.AddAll(triples)
	if err := disk.Err(); err != nil {
		t.Fatalf("disk ingest: %v", err)
	}
	diskRes, err := disk.Query(core.Listing3Query)
	if err != nil {
		t.Fatal(err)
	}
	if !equalRows(oracle, canonical(t, diskRes)) {
		t.Fatalf("warm disk-backed workflow diverged:\n  oracle %v\n  disk   %v",
			oracle, canonical(t, diskRes))
	}
	if err := disk.Close(); err != nil {
		t.Fatal(err)
	}

	// Cold restart: segment footers only, no dataset replay.
	cold, err := strabon.Open(dir, segment.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	if cold.Engine().Segments() == 0 {
		t.Fatal("cold store has no segments; the disk path was never exercised")
	}
	if n := cold.Engine().Stats().WALReplayed; n != 0 {
		t.Fatalf("cold open replayed %d WAL triples; close should have flushed them all", n)
	}
	coldRes, err := cold.Query(core.Listing3Query)
	if err != nil {
		t.Fatal(err)
	}
	if !equalRows(oracle, canonical(t, coldRes)) {
		t.Fatalf("cold disk-backed workflow diverged:\n  oracle %v\n  cold   %v",
			oracle, canonical(t, coldRes))
	}

	// Workflow 4 (the §5 shape): federation with the cold disk store as
	// the local member and a live endpoint over the in-memory store as
	// the remote.
	epHTTP := httptest.NewServer(endpoint.NewHandler(mem, nil))
	defer epHTTP.Close()
	fed := federation.New(federation.Member{Name: "local", Source: cold})
	fed.AddMember(federation.Member{Name: "remote1", Source: endpoint.NewRemoteSource(epHTTP.URL)})
	fedRes, err := sparql.Eval(fed, core.Listing3Query)
	if err != nil {
		t.Fatal(err)
	}
	if fedRes.Partial {
		t.Fatal("federated query partial")
	}
	if !equalRows(oracle, canonical(t, fedRes)) {
		t.Fatalf("federated workflow over the segment store diverged")
	}
}
