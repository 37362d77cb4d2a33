package opendap

// Race stress test for the cache layer: concurrent tile fetches with
// shape declarations on TileCache. Run under `go test -race`.

import (
	"sync"
	"testing"
)

func mustConstraint(t testing.TB, s string) Constraint {
	t.Helper()
	c, err := ParseConstraint(s)
	if err != nil {
		t.Fatalf("ParseConstraint(%q): %v", s, err)
	}
	return c
}

func TestTileCacheConcurrency(t *testing.T) {
	_, client, closeFn := newTestServer(t)
	defer closeFn()

	cache := NewTileCache(client, 4)
	cache.SetShape("lai", "LAI", []int{4, 10, 10})

	// Overlapping mobile-viewport windows, including the array edge.
	windows := []Constraint{
		mustConstraint(t, "LAI[0:1][0:5][0:5]"),
		mustConstraint(t, "LAI[1:2][2:7][3:8]"),
		mustConstraint(t, "LAI[0:3][6:9][6:9]"),
		mustConstraint(t, "LAI[3:3][0:9][0:9]"),
	}
	// Ground truth straight from the server, before any concurrency.
	want := make([][]float64, len(windows))
	for i, c := range windows {
		ds, err := client.Fetch(ctx, "lai", c)
		if err != nil {
			t.Fatal(err)
		}
		v, ok := ds.Var("LAI")
		if !ok {
			t.Fatalf("window %d: LAI missing from response", i)
		}
		want[i] = v.Data
	}

	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				k := (w + i) % len(windows)
				ds, err := cache.Fetch(ctx, "lai", windows[k])
				if err != nil {
					t.Errorf("worker %d: Fetch: %v", w, err)
					return
				}
				v, ok := ds.Var("LAI")
				if !ok {
					t.Errorf("worker %d: LAI missing from response", w)
					return
				}
				if len(v.Data) != len(want[k]) {
					t.Errorf("worker %d: window %d: got %d cells, want %d",
						w, k, len(v.Data), len(want[k]))
					return
				}
				for j := range v.Data {
					if v.Data[j] != want[k][j] {
						t.Errorf("worker %d: window %d: cell %d = %g, want %g",
							w, k, j, v.Data[j], want[k][j])
						return
					}
				}
			}
		}(w)
	}
	// Shape declarations racing the fetches (idempotent, same shape).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			cache.SetShape("lai", "LAI", []int{4, 10, 10})
			cache.Stats()
		}
	}()
	wg.Wait()

	if st := cache.Stats(); st.Hits == 0 || st.Misses == 0 {
		t.Errorf("tile cache stats after stress: %+v", st)
	}
}
