package opendap

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

func newAuthServer(t *testing.T) (*Server, *AccessControl, string, func()) {
	t.Helper()
	srv := NewServer()
	srv.Publish(testDataset(t))
	ac := NewAccessControl()
	ac.Register("secret-token-1", "alice")
	ac.Register("secret-token-2", "bob")
	srv.Auth = ac
	ts := httptest.NewServer(srv)
	return srv, ac, ts.URL, ts.Close
}

func TestAuthRejectsUnregistered(t *testing.T) {
	_, ac, base, closeFn := newAuthServer(t)
	defer closeFn()

	anon := NewClient(base)
	if _, err := anon.Fetch(ctx, "lai", Constraint{Var: "time"}); err == nil {
		t.Error("anonymous data fetch must be rejected")
	}
	bad := NewClient(base)
	bad.Token = "wrong"
	if _, err := bad.Fetch(ctx, "lai", Constraint{Var: "time"}); err == nil {
		t.Error("bad token must be rejected")
	}
	if ac.Denied() != 2 {
		t.Errorf("denied = %d", ac.Denied())
	}
}

func TestAuthAllowsRegisteredAndTracksUsage(t *testing.T) {
	_, ac, base, closeFn := newAuthServer(t)
	defer closeFn()

	alice := NewClient(base)
	alice.Token = "secret-token-1"
	for i := 0; i < 3; i++ {
		if _, err := alice.Fetch(ctx, "lai", Constraint{Var: "time"}); err != nil {
			t.Fatalf("registered fetch: %v", err)
		}
	}
	bob := NewClient(base)
	bob.Token = "secret-token-2"
	if _, err := bob.Fetch(ctx, "lai", Constraint{Var: "LAI"}); err != nil {
		t.Fatalf("bob fetch: %v", err)
	}

	if ac.Usage("alice", "lai") != 3 {
		t.Errorf("alice usage = %d", ac.Usage("alice", "lai"))
	}
	if ac.Usage("bob", "lai") != 1 {
		t.Errorf("bob usage = %d", ac.Usage("bob", "lai"))
	}
	report := ac.Report()
	if len(report) != 2 || report[0].User != "alice" || report[0].Count != 3 {
		t.Errorf("report = %+v", report)
	}
}

func TestAuthMetadataStaysOpen(t *testing.T) {
	_, _, base, closeFn := newAuthServer(t)
	defer closeFn()
	anon := NewClient(base)
	if _, err := anon.DDS(ctx, "lai"); err != nil {
		t.Errorf("DDS must stay open: %v", err)
	}
	if _, err := anon.Catalog(ctx); err != nil {
		t.Errorf("catalog must stay open: %v", err)
	}
	if _, err := anon.NcML(ctx, "lai"); err != nil {
		t.Errorf("NcML must stay open: %v", err)
	}
}

func TestAuthBearerHeader(t *testing.T) {
	_, ac, base, closeFn := newAuthServer(t)
	defer closeFn()
	req, _ := http.NewRequest("GET", base+"/lai.dods?time", nil)
	req.Header.Set("Authorization", "Bearer secret-token-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("bearer auth status = %v", resp.Status)
	}
	if ac.Usage("alice", "lai") != 1 {
		t.Errorf("usage = %d", ac.Usage("alice", "lai"))
	}
}

func TestAuthRevoke(t *testing.T) {
	_, ac, base, closeFn := newAuthServer(t)
	defer closeFn()
	c := NewClient(base)
	c.Token = "secret-token-1"
	if _, err := c.Fetch(ctx, "lai", Constraint{Var: "time"}); err != nil {
		t.Fatal(err)
	}
	ac.Revoke("secret-token-1")
	if _, err := c.Fetch(ctx, "lai", Constraint{Var: "time"}); err == nil {
		t.Error("revoked token must be rejected")
	}
}

func TestStripTokenParam(t *testing.T) {
	cases := []struct{ in, want string }{
		{"LAI%5B0:1%5D", "LAI%5B0:1%5D"},
		{"token=abc&LAI%5B0:1%5D", "LAI%5B0:1%5D"},
		{"token=abc", ""},
		{"LAI&token=abc", "LAI"},
	}
	for _, c := range cases {
		if got := stripTokenParam(c.in); got != c.want {
			t.Errorf("stripTokenParam(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}
