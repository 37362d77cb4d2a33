package analysis_test

import "testing"

// Generic-code fixtures for the syntactic checkers: each checker must
// neither crash on, nor miss findings in, code using type parameters and
// explicit instantiations.

func TestSharedmapGenerics(t *testing.T) {
	runCases(t, "sharedmap", []checkerCase{
		{
			name: "unguarded generic cache written from goroutine-active method",
			src: `package fixture

type Cache[K comparable, V any] struct {
	items map[K]V
}

func (c *Cache[K, V]) refresh() {
	go func() {}()
}

func (c *Cache[K, V]) Put(k K, v V) {
	c.items[k] = v
}
`,
			want:       1,
			wantSubstr: "guarding mutex",
		},
		{
			name: "mutex-guarded generic cache is fine",
			src: `package fixture

import "sync"

type Cache[K comparable, V any] struct {
	mu    sync.Mutex
	items map[K]V
}

func (c *Cache[K, V]) refresh() {
	go func() {}()
}

func (c *Cache[K, V]) Put(k K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.items[k] = v
}
`,
			want: 0,
		},
		{
			name: "instantiated write through a concrete type is caught",
			src: `package fixture

type Reg[T any] struct {
	byName map[string]T
}

func (r *Reg[T]) watch() {
	go func() {}()
}

func add(r *Reg[int]) {
	r.byName["x"] = 1
}
`,
			want: 1,
		},
		{
			name: "delete on an instantiated generic map field is caught",
			src: `package fixture

type Reg[T any] struct {
	byName map[string]T
}

func (r *Reg[T]) watch() {
	go func() {}()
}

func drop(r *Reg[string]) {
	delete(r.byName, "x")
}
`,
			want: 1,
		},
	})
}

func TestErrcheckGenerics(t *testing.T) {
	runCases(t, "errcheck", []checkerCase{
		{
			name: "explicitly instantiated call with dropped error",
			src: `package fixture

func parse[T any](s string) (T, error) {
	var zero T
	return zero, nil
}

func f() {
	parse[int]("x") // error dropped
}
`,
			want:       1,
			wantSubstr: "parse",
		},
		{
			name: "inferred generic call with dropped error",
			src: `package fixture

func conv[T any](v T) (T, error) { return v, nil }

func f() {
	conv(1)
}
`,
			want: 1,
		},
		{
			name: "handled generic error is fine",
			src: `package fixture

func conv[T any](v T) (T, error) { return v, nil }

func f() error {
	if _, err := conv(1); err != nil {
		return err
	}
	return nil
}
`,
			want: 0,
		},
	})
}
