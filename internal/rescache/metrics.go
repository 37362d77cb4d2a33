package rescache

// Metric helpers: one per series, each owning its name literal (the
// applab-lint telemetry checker enforces one registration site per
// name). All are nil-safe through the registry.

func (c *Cache) noteHit() {
	if c.Metrics != nil {
		c.Metrics.Counter("rescache_hits_total").Inc()
	}
}

func (c *Cache) noteMiss() {
	if c.Metrics != nil {
		c.Metrics.Counter("rescache_misses_total").Inc()
	}
}

func (c *Cache) noteStale() {
	if c.Metrics != nil {
		c.Metrics.Counter("rescache_stale_total").Inc()
	}
}

func (c *Cache) noteBypass() {
	if c.Metrics != nil {
		c.Metrics.Counter("rescache_bypass_total").Inc()
	}
}

func (c *Cache) noteFill() {
	if c.Metrics != nil {
		c.Metrics.Counter("rescache_fills_total").Inc()
	}
}

func (c *Cache) noteEviction() {
	if c.Metrics != nil {
		c.Metrics.Counter("rescache_evictions_total").Inc()
	}
}

func (c *Cache) noteStaleServed() {
	if c.Metrics != nil {
		c.Metrics.Counter("rescache_stale_served_total").Inc()
	}
}

func (c *Cache) setEntries(n int) {
	if c.Metrics != nil {
		c.Metrics.Gauge("rescache_entries").Set(float64(n))
	}
}

func (c *Cache) setBytes(n int64) {
	if c.Metrics != nil {
		c.Metrics.Gauge("rescache_bytes").Set(float64(n))
	}
}
