package obs

// ServerMetrics bundles the request-level metric families of the
// network query server. The metric names live here — next to the
// engine-phase families they sit alongside on /metrics — so the server,
// the daemon and the tests agree on one inventory:
//
//	sama_server_request_seconds      histogram  end-to-end request latency
//	                                            (queue wait + execution + encode)
//	sama_server_queue_wait_seconds   histogram  time waiting for an execution slot
//	sama_server_admitted_total       counter    requests that got a slot
//	sama_server_shed_total{reason}   counter    requests refused with 503
//	sama_server_requests_total{code} counter    responses by HTTP status
//	sama_server_inflight             gauge      queries executing now
//	sama_server_queued               gauge      requests waiting for a slot
//
// A nil *ServerMetrics is valid and records nothing, matching the
// package's nil-safe handle convention.
type ServerMetrics struct {
	reg *Registry

	// RequestSeconds observes end-to-end request latency, including
	// queue wait, for every /query request that reached admission.
	RequestSeconds *Histogram
	// QueueSeconds observes the slot wait alone.
	QueueSeconds *Histogram
	// Admitted counts requests granted an execution slot.
	Admitted *Counter
}

// Shed reasons, the values of sama_server_shed_total's reason label.
const (
	// ShedQueueFull: concurrency limit reached and the wait queue was at
	// capacity.
	ShedQueueFull = "queue_full"
	// ShedQueueTimeout: the request waited its full queue timeout.
	ShedQueueTimeout = "queue_timeout"
	// ShedDraining: the server was shutting down.
	ShedDraining = "draining"
	// ShedClientGone: the client disconnected while queued.
	ShedClientGone = "client_gone"
)

// NewServerMetrics registers the request-level families in reg and
// returns their handles. reg may be nil: the result's handles are then
// all nil — valid, recording nothing — so callers never guard field
// access.
func NewServerMetrics(reg *Registry) *ServerMetrics {
	if reg == nil {
		return &ServerMetrics{}
	}
	return &ServerMetrics{
		reg: reg,
		RequestSeconds: reg.Histogram("sama_server_request_seconds",
			"End-to-end /query latency: queue wait + execution + response encoding.", nil),
		QueueSeconds: reg.Histogram("sama_server_queue_wait_seconds",
			"Time spent waiting for an execution slot.", nil),
		Admitted: reg.Counter("sama_server_admitted_total",
			"Requests granted an execution slot."),
	}
}

// Shed returns the shed counter for one reason (see the Shed*
// constants).
func (m *ServerMetrics) Shed(reason string) *Counter {
	if m == nil || m.reg == nil {
		return nil
	}
	return m.reg.Counter("sama_server_shed_total",
		"Requests refused with 503, by reason.", "reason", reason)
}

// Requests returns the response counter for one HTTP status code.
func (m *ServerMetrics) Requests(code string) *Counter {
	if m == nil || m.reg == nil {
		return nil
	}
	return m.reg.Counter("sama_server_requests_total",
		"Responses sent, by HTTP status code.", "code", code)
}

// SetAdmissionFuncs registers the inflight and queued gauges, evaluated
// at scrape time from the admission controller's live state.
func (m *ServerMetrics) SetAdmissionFuncs(inflight, queued func() float64) {
	if m == nil || m.reg == nil {
		return
	}
	m.reg.GaugeFunc("sama_server_inflight",
		"Queries executing right now.", inflight)
	m.reg.GaugeFunc("sama_server_queued",
		"Requests waiting for an execution slot.", queued)
}
