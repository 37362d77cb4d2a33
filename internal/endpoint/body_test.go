package endpoint

// Bounds on what the endpoint reads from outside: a POSTed query body is
// capped at maxQueryBytes and read to the end or not evaluated at all,
// and a member's non-200 body is quoted only up to maxErrorBodyBytes.

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"applab/internal/rdf"
	"applab/internal/telemetry"
)

// postBody serves one POST /sparql with body and returns the status and
// the endpoint_errors_total it left behind.
func postBody(t *testing.T, body io.Reader) (int, int64) {
	t.Helper()
	reg := telemetry.NewRegistry()
	h := NewHandlerOpts(smallGraph(t, 1), reg, Options{})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/sparql", body))
	return rec.Code, reg.Counter("endpoint_errors_total").Value()
}

func TestPostBodyTooLarge(t *testing.T) {
	padded := "ASK {}" + strings.Repeat(" ", maxQueryBytes)
	status, errs := postBody(t, strings.NewReader(padded))
	if status != http.StatusRequestEntityTooLarge || errs != 1 {
		t.Fatalf("body past %d B: status %d, %d errors; want 413, 1", maxQueryBytes, status, errs)
	}
}

type failingReader struct{}

func (failingReader) Read([]byte) (int, error) { return 0, errors.New("connection reset") }

func TestPostBodyReadError(t *testing.T) {
	status, errs := postBody(t, io.MultiReader(strings.NewReader("ASK {}"), failingReader{}))
	if status != http.StatusBadRequest || errs != 1 {
		t.Fatalf("cut-off body: status %d, %d errors; want 400, 1", status, errs)
	}
}

func TestRemoteErrorBodyBounded(t *testing.T) {
	huge := strings.Repeat("x", 10<<20)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, huge, http.StatusInternalServerError)
	}))
	defer srv.Close()
	remote := NewRemoteSource(srv.URL)
	_, matchErr := remote.MatchErr(rdf.Term{}, rdf.Term{}, rdf.Term{})
	for name, err := range map[string]error{"match": matchErr, "probe": remote.Probe()} {
		if err == nil {
			t.Errorf("%s against a 500: no error", name)
		} else if n := len(err.Error()); n >= 1<<10 {
			t.Errorf("%s against a 10 MiB 500: error of %d B, want one under 1 KiB", name, n)
		}
	}
}
