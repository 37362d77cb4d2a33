package analysis_test

import (
	"go/token"
	"strings"
	"testing"

	"applab/internal/analysis"
)

func mkFinding(file string, line, col int, check, msg string) analysis.Finding {
	return analysis.Finding{
		Pos:     token.Position{Filename: file, Line: line, Column: col},
		Check:   check,
		Message: msg,
	}
}

func TestFindingString(t *testing.T) {
	f := mkFinding("a.go", 3, 9, "errcheck", "dropped")
	if got, want := f.String(), "a.go:3:9: [errcheck] dropped"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestSortFindings(t *testing.T) {
	fs := []analysis.Finding{
		mkFinding("b.go", 1, 1, "z", ""),
		mkFinding("a.go", 2, 2, "b", ""),
		mkFinding("a.go", 2, 2, "a", ""),
		mkFinding("a.go", 2, 1, "z", ""),
		mkFinding("a.go", 1, 9, "z", ""),
	}
	analysis.SortFindings(fs)
	var order []string
	for _, f := range fs {
		order = append(order, f.String())
	}
	want := []string{
		"a.go:1:9: [z] ",
		"a.go:2:1: [z] ",
		"a.go:2:2: [a] ",
		"a.go:2:2: [b] ",
		"b.go:1:1: [z] ",
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("sort order mismatch at %d: got %v", i, order)
		}
	}
}

func TestUnusedIgnoreDirectiveReported(t *testing.T) {
	got := runChecker(t, "sharedmap", checkerCase{
		name: "unused",
		src: `package fixture

func fine() {
	//lint:ignore sharedmap reason: nothing here writes a shared map
	_ = 1
}
`,
	})
	if len(got) != 1 {
		t.Fatalf("want 1 unused-directive finding, got %v", got)
	}
	if got[0].Check != "directive" || !strings.Contains(got[0].Message, "unused") {
		t.Errorf("unexpected finding: %v", got[0])
	}
}

// TestDirectiveForOtherCheckReported: every directive that suppresses
// nothing is reported, also one naming a check that did not run or does
// not exist.
func TestDirectiveForOtherCheckReported(t *testing.T) {
	got := runChecker(t, "errcheck", checkerCase{
		name: "other check",
		src: `package fixture

func fine() {
	//lint:ignore lockflow reason: verified manually, lock handed off
	_ = 1
}
`,
	})
	if len(got) != 1 || got[0].Check != "directive" || !strings.Contains(got[0].Message, "unused") {
		t.Fatalf("want 1 unused-directive finding, got %v", got)
	}
}
