package analysis

import (
	"go/token"
	"sort"
	"strconv"
	"strings"
)

const ignorePrefix = "//lint:ignore"

// ignoreDirective is one parsed //lint:ignore comment. used flips when
// the directive actually suppresses a finding, so stale suppressions
// can be reported.
type ignoreDirective struct {
	pos    token.Pos
	checks map[string]bool
	used   bool
}

// ignoreSet maps "<file>:<line>" to the directives on that line.
type ignoreSet map[string][]*ignoreDirective

// suppress removes findings matched by //lint:ignore directives from
// *findings and returns diagnostics for malformed or unused directives.
// A directive suppresses the named check(s) on its own line (end-of-line
// comment) and on the line immediately below (comment-above style), and
// must carry an enforced reason:
//
//	//lint:ignore <check> reason: <why this is safe>
//
// A directive that matched nothing is itself reported: stale
// suppressions hide future regressions.
func suppress(pass *Pass, findings *[]Finding) []Finding {
	ignores, bad := collectIgnores(pass)
	kept := (*findings)[:0]
	for _, f := range *findings {
		if ignores.matches(f) {
			continue
		}
		kept = append(kept, f)
	}
	*findings = kept

	var stale []*ignoreDirective
	for _, ds := range ignores {
		for _, d := range ds {
			if !d.used {
				stale = append(stale, d)
			}
		}
	}
	sort.Slice(stale, func(i, j int) bool { return stale[i].pos < stale[j].pos })
	for _, d := range stale {
		bad = append(bad, pass.finding(d.pos, "directive",
			"unused %s directive: the suppressed check reports nothing here; delete it", ignorePrefix))
	}
	return bad
}

func (s ignoreSet) matches(f Finding) bool {
	hit := false
	for _, line := range []int{f.Pos.Line, f.Pos.Line - 1} {
		for _, d := range s[key(f.Pos.Filename, line)] {
			if d.checks["*"] || d.checks[f.Check] {
				d.used = true
				hit = true
			}
		}
	}
	return hit
}

func key(file string, line int) string {
	return file + ":" + strconv.Itoa(line)
}

// collectIgnores parses every //lint:ignore directive in the pass.
func collectIgnores(pass *Pass) (ignoreSet, []Finding) {
	ignores := ignoreSet{}
	var bad []Finding
	for _, file := range pass.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, ignorePrefix)
				fields := strings.Fields(rest)
				if len(fields) < 3 || fields[1] != "reason:" {
					bad = append(bad, pass.finding(c.Pos(), "directive",
						"suppression needs an enforced reason: want %s <check> reason: <why>", ignorePrefix))
					continue
				}
				pos := pass.Fset.Position(c.Pos())
				d := &ignoreDirective{pos: c.Pos(), checks: map[string]bool{}}
				for _, name := range strings.Split(fields[0], ",") {
					d.checks[name] = true
				}
				k := key(pos.Filename, pos.Line)
				ignores[k] = append(ignores[k], d)
			}
		}
	}
	return ignores, bad
}
