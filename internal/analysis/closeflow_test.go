package analysis_test

import (
	"strings"
	"testing"
)

const closeflowPrelude = `package fixture

import (
	"net"
	"net/http"
	"os"
)

func sink(f *os.File)     {}
func sinkConn(c net.Conn) {}

var keep *os.File

var _ = http.DefaultClient
`

func TestCloseflow(t *testing.T) {
	runCases(t, "closeflow", []checkerCase{
		{
			name: "file opened and returned without close on error path is flagged",
			src: closeflowPrelude + `
func leak(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 16)
	_, err = f.Read(buf)
	if err != nil {
		return nil, err // f leaks here
	}
	f.Close()
	return buf, nil
}
`,
			want:       1,
			wantSubstr: "not be closed on every path",
		},
		{
			name: "deferred close covers every path",
			src: closeflowPrelude + `
func ok(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, 16)
	if _, err := f.Read(buf); err != nil {
		return nil, err
	}
	return buf, nil
}
`,
			want: 0,
		},
		{
			name: "close on both branches is fine",
			src: closeflowPrelude + `
func ok(path string, quick bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	if quick {
		f.Close()
		return nil
	}
	f.Close()
	return nil
}
`,
			want: 0,
		},
		{
			name: "returning the resource transfers ownership",
			src: closeflowPrelude + `
func open(path string) (*os.File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return f, nil
}
`,
			want: 0,
		},
		{
			name: "passing the resource to a call transfers ownership",
			src: closeflowPrelude + `
func handoff(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	sink(f)
	return nil
}
`,
			want: 0,
		},
		{
			name: "storing the resource escapes it",
			src: closeflowPrelude + `
func stash(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	keep = f
	return nil
}
`,
			want: 0,
		},
		{
			name: "capture by closure escapes it",
			src: closeflowPrelude + `
func capture(path string) (func(), error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return func() { f.Close() }, nil
}
`,
			want: 0,
		},
		{
			name: "missing close on the early-return branch is flagged",
			src: closeflowPrelude + `
func listen(addr string, ready chan<- struct{}) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	select {
	case ready <- struct{}{}:
	default:
		return nil // ln leaks
	}
	return ln.Close()
}
`,
			want: 1,
		},
		{
			name: "http response body closed via defer",
			src: closeflowPrelude + `
func fetch(url string) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return nil
}
`,
			want: 0,
		},
		{
			name: "http response never closed is flagged",
			src: closeflowPrelude + `
func fetch(url string) (int, error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}
`,
			want:       1,
			wantSubstr: "resp",
		},
		{
			name: "open in a loop with close each iteration is fine",
			src: closeflowPrelude + `
func sum(paths []string) error {
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		f.Close()
	}
	return nil
}
`,
			want: 0,
		},
		{
			name: "open in a loop leaking each iteration is flagged",
			src: closeflowPrelude + `
func sum(paths []string) (int, error) {
	n := 0
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return 0, err
		}
		st, err := f.Stat()
		if err != nil {
			return 0, err // f leaks
		}
		n += int(st.Size())
		f.Close()
	}
	return n, nil
}
`,
			want: 1,
		},
		{
			name: "suggested fix lands after the error guard",
			src: closeflowPrelude + `
func read(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	buf := make([]byte, 16)
	n, err := f.Read(buf)
	if err != nil {
		return 0, err
	}
	return n, nil
}
`,
			want: 1,
		},
		{
			name: "lint:ignore suppresses with a reason",
			src: closeflowPrelude + `
func intentional(path string) error {
	//lint:ignore closeflow reason: fd intentionally held until process exit
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	_ = f.Fd()
	return nil
}
`,
			want: 0,
		},
	})
}

// TestCloseflowFix: a never-closed, never-escaping file is one finding
// whose message names the defer to add.
func TestCloseflowFix(t *testing.T) {
	got := runChecker(t, "closeflow", checkerCase{
		name: "fix",
		src: closeflowPrelude + `
func read(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	buf := make([]byte, 16)
	n, err := f.Read(buf)
	if err != nil {
		return 0, err
	}
	return n, nil
}
`,
	})
	if len(got) != 1 {
		t.Fatalf("want 1 finding, got %v", got)
	}
	if !strings.Contains(got[0].Message, "defer f.Close()") {
		t.Errorf("message %q does not name defer f.Close()", got[0].Message)
	}
}

// TestCloseflowNoFixWhenPartiallyClosed: a close on the main path does
// not hide the early return that leaks the file.
func TestCloseflowNoFixWhenPartiallyClosed(t *testing.T) {
	got := runChecker(t, "closeflow", checkerCase{
		name: "partial",
		src: closeflowPrelude + `
func read(path string, quick bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	if quick {
		return nil // leak
	}
	f.Close()
	return nil
}
`,
	})
	if len(got) != 1 {
		t.Fatalf("want 1 finding, got %v", got)
	}
}
