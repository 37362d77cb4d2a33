package analysis_test

import "testing"

const errflowPrelude = `package fixture

import "errors"

func step() error      { return nil }
func load() (int, error) { return 0, nil }
func logErr(err error) {}

var errBoom = errors.New("boom")
`

func TestErrflow(t *testing.T) {
	runCases(t, "errflow", []checkerCase{
		{
			name: "overwrite before check is flagged",
			src: errflowPrelude + `
func run() error {
	err := step()
	err = step() // first error lost
	return err
}
`,
			want:       1,
			wantSubstr: "overwrites the error assigned at line",
		},
		{
			name: "check between assignments is fine",
			src: errflowPrelude + `
func run() error {
	err := step()
	if err != nil {
		return err
	}
	err = step()
	return err
}
`,
			want: 0,
		},
		{
			name: "error falling off a return path is flagged",
			src: errflowPrelude + `
func run() int {
	n, err := load()
	_ = err
	return n
}
`,
			want: 0, // blank assignment reads it: explicit discard is errcheck's territory
		},
		{
			name: "assigned error never consulted before return",
			src: errflowPrelude + `
func run() int {
	n, err := load()
	if n > 0 {
		return n
	}
	err = step()
	_ = err
	return 0
}
`,
			want:       1, // the load() error is overwritten unchecked on the n<=0 path
			wantSubstr: "overwrites",
		},
		{
			name: "dropped on every path out is flagged",
			src: errflowPrelude + `
func run() int {
	n, err := load()
	if n < 0 {
		panic(err)
	}
	return n // err unchecked on every path reaching this return
}
`,
			want:       1,
			wantSubstr: "never checked",
		},
		{
			name: "returning the error counts as checking",
			src: errflowPrelude + `
func run() (int, error) {
	n, err := load()
	return n, err
}
`,
			want: 0,
		},
		{
			name: "passing the error to a logger counts",
			src: errflowPrelude + `
func run() int {
	n, err := load()
	logErr(err)
	return n
}
`,
			want: 0,
		},
		{
			name: "fallback path clobbers the primary error",
			src: errflowPrelude + `
func run(fallback bool) error {
	err := step()
	if fallback {
		err = step() // primary error silently replaced
	}
	if err != nil {
		return err
	}
	return nil
}
`,
			want:       1,
			wantSubstr: "overwrites",
		},
		{
			name: "overwrite inside a loop body is reported once",
			src: errflowPrelude + `
func run(n int) {
	var err error
	_ = err
	for i := 0; i < n; i++ {
		err = step()
		err = step()
	}
	_ = err
}
`,
			want:       1, // the solver visits the body twice; the finding comes from the converged fact
			wantSubstr: "overwrites the error assigned at line",
		},
		{
			name: "checked then reassigned on the same branch is fine",
			src: errflowPrelude + `
func run(fallback bool) error {
	err := step()
	if err != nil && fallback {
		err = step()
	}
	return err
}
`,
			want: 0,
		},
		{
			name: "named result checked by naked return",
			src: errflowPrelude + `
func run() (err error) {
	err = step()
	return
}
`,
			want: 0,
		},
		{
			name: "explicit nil reset is not an overwrite",
			src: errflowPrelude + `
func run() error {
	var err error
	err = step()
	logErr(err)
	err = nil
	return err
}
`,
			want: 0,
		},
		{
			name: "retry loop with per-iteration check is fine",
			src: errflowPrelude + `
func run() error {
	var err error
	for i := 0; i < 3; i++ {
		err = step()
		if err == nil {
			break
		}
	}
	return err
}
`,
			want: 0,
		},
		{
			name: "error read inside a deferred closure counts",
			src: errflowPrelude + `
func run() {
	err := step()
	defer func() { logErr(err) }()
}
`,
			want: 0,
		},
		{
			name: "lint:ignore suppresses with a reason",
			src: errflowPrelude + `
func run() error {
	err := step()
	//lint:ignore errflow reason: probe call, only the second attempt's error matters
	err = step()
	return err
}
`,
			want: 0,
		},
	})
}
