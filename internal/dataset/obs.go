package dataset

import "dpkron/internal/obs"

// storeMetrics is the dataset store's telemetry: loads labeled by the
// route the bytes took (cache hit, legacy v1 decode and upgrade, v2
// mmap, v2 heap fallback). The zero value no-ops.
type storeMetrics struct {
	loads *obs.CounterVec
}

// Load route labels: the bounded set of ways a dataset reaches a
// caller.
const (
	loadRouteCache  = "cache"
	loadRouteV1     = "v1-decode"
	loadRouteMmap   = "v2-mmap"
	loadRouteV2Heap = "v2-heap"
)

// Instrument registers the store's metrics on reg. Call once, before
// serving traffic; a nil reg leaves the store uninstrumented.
func (s *Store) Instrument(reg *obs.Registry) {
	s.met = storeMetrics{
		loads: reg.CounterVec("dpkron_dataset_loads_total", "Dataset loads, by route (cache, v1-decode, v2-mmap, v2-heap).", "route"),
	}
}
