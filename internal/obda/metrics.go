package obda

// Metric registration helpers for the OBDA layer. The adapter's
// window caches and client report under the opendap_* names; the
// obda-native series count physical fetches across all windows (the
// Calls counter the benchmarks already read) and what each revalidation
// of the virtual graph's view came to. One call site per name literal,
// nil-safe throughout.

// notePhysicalFetch counts one fetch that reached the OPeNDAP server
// (i.e. was not absorbed by a window cache).
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
