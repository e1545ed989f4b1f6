package storeclnt

import (
	"synapse/internal/telemetry"
)

// clientMetrics are the client's resilience instruments. Stats() is a view
// over these — the counters are the source of truth, so a scrape of the
// shared registry and a Stats() call can never disagree.
type clientMetrics struct {
	retries      *telemetry.Counter
	staleReads   *telemetry.Counter
	shed429      *telemetry.Counter
	breakerOpens *telemetry.Counter
}

// WithMetrics registers the client's instruments into reg instead of a
// private registry, merging client series into an existing /v1/metrics
// scrape. Clients sharing one registry share the counters (fleet-wide
// aggregates), so their Stats() views aggregate too.
func WithMetrics(reg *telemetry.Registry) Option {
	return func(r *Remote) { r.metricsReg = reg }
}

func newClientMetrics(r *Remote, reg *telemetry.Registry) *clientMetrics {
	m := &clientMetrics{
		retries: reg.Counter("synapse_client_retries_total",
			"Request attempts beyond the first (retransmissions)."),
		staleReads: reg.Counter("synapse_client_stale_reads_total",
			"Reads served from the local cache while the circuit was open."),
		shed429: reg.Counter("synapse_client_shed_total",
			"Requests the server shed with 429 before executing."),
		breakerOpens: reg.Counter("synapse_client_breaker_opens_total",
			"Circuit-open transitions across endpoints."),
	}
	// A per-instance gauge: when clients share a registry, GaugeFunc keeps
	// the first function, so it describes the first-registered client.
	reg.GaugeFunc("synapse_client_cache_entries",
		"Keys currently held in the client read cache.",
		func() float64 { return float64(r.CacheLen()) })
	return m
}
