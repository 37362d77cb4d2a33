package obda

// Metric registration helpers for the OBDA layer. The adapter's regions
// report window hits, misses and stale serves under the opendap_cache_*
// names the paper's window w is known by; the obda-native series count
// the fetches that reach the server (the PhysicalCalls counter the
// benchmarks already read) and what each revalidation of the virtual
// graph's view came to. One call site per name literal, nil-safe
// throughout.

// noteWindowHit counts one call served inside its region's window.
func (a *OpendapAdapter) noteWindowHit() {
	a.Metrics.Counter("opendap_cache_hits_total").Inc()
}

// noteWindowMiss counts one successful fetch of a windowed region.
func (a *OpendapAdapter) noteWindowMiss() {
	a.Metrics.Counter("opendap_cache_misses_total").Inc()
}

// noteStaleServe counts one expired window served because its fetch
// failed (ServeStale).
func (a *OpendapAdapter) noteStaleServe() {
	a.Metrics.Counter("opendap_cache_stale_total").Inc()
}

// notePhysicalFetch counts one fetch that reached the OPeNDAP server
// (i.e. was not absorbed by a window).
func (a *OpendapAdapter) notePhysicalFetch() {
	a.Metrics.Counter("obda_physical_fetches_total").Inc()
}

// noteRebuild counts one revalidation that derived the view again
// because some mapping's source relation had changed.
func (vg *VirtualGraph) noteRebuild() {
	vg.Metrics.Counter("obda_view_rebuilds_total").Inc()
}

// noteReuse counts one revalidation that found every source relation
// unchanged and published the same view again.
func (vg *VirtualGraph) noteReuse() {
	vg.Metrics.Counter("obda_view_reuses_total").Inc()
}
