package core

import (
	"time"

	"rpcoib/internal/exec"
	"rpcoib/internal/metrics"
	"rpcoib/internal/wire"
)

// Stage names for the per-<protocol,method> latency breakdown. Server:
// serialize (Reader deserialization + buffer handling), alloc (the share of
// serialize spent allocating receive buffers, Figure 1's numerator),
// transport (wire occupancy of the inbound message), handle (Handler
// dequeue-to-enqueue), respond (Responder send). Client: serialize and send,
// Table I's two time columns.
const (
	stageSerialize = "serialize"
	stageAlloc     = "alloc"
	stageTransport = "transport"
	stageHandle    = "handle"
	stageRespond   = "respond"
	stageSend      = "send"
)

// unknownKind labels every call whose <protocol,method> the server does not
// serve. The names came off the wire, so observing under them would let a
// peer grow the registry and the pool history without bound.
const unknownKind = "unknown"

// Metric family names. Kept as package-level consts so the static analyzer
// (rpcoiblint metricnames) can enumerate them against metric_names.golden;
// never build a family name with fmt.Sprintf or an inline literal.
const (
	mServerCallQueueDepth   = "rpc_server_call_queue_depth"
	mServerResponderBacklog = "rpc_server_responder_backlog"
	mServerHandlersBusy     = "rpc_server_handlers_busy"
	mServerConnections      = "rpc_server_connections"
	mServerCallsReceived    = "rpc_server_calls_received_total"
	mServerCallsHandled     = "rpc_server_calls_handled_total"
	mServerCallErrors       = "rpc_server_call_errors_total"
	mServerCallsShed        = "rpc_server_calls_shed_total"
	mServerCallsExpired     = "rpc_server_calls_expired_total"
	mServerBytesIn          = "rpc_server_bytes_in_total"
	mServerBytesOut         = "rpc_server_bytes_out_total"
	mServerStageNS          = "rpc_server_stage_ns"
	mServerPoolPrefix       = "rpc_server_pool"

	mClientConnections      = "rpc_client_connections"
	mClientOutstanding      = "rpc_client_outstanding_calls"
	mClientCalls            = "rpc_client_calls_total"
	mClientErrors           = "rpc_client_errors_total"
	mClientTimeouts         = "rpc_client_timeouts_total"
	mClientReconnects       = "rpc_client_reconnects_total"
	mClientRetries          = "rpc_client_retries_total"
	mClientBytesOut         = "rpc_client_bytes_out_total"
	mClientDeadlineExceeded = "rpc_client_deadline_exceeded_total"
	mClientBusy             = "rpc_client_busy_total"
	mClientBreakerOpens     = "rpc_client_breaker_opens_total"
	mClientBreakerHalfOpens = "rpc_client_breaker_half_opens_total"
	mClientBreakerCloses    = "rpc_client_breaker_closes_total"
	mClientBreakerReopens   = "rpc_client_breaker_reopens_total"
	mClientBreakerOpen      = "rpc_client_breaker_open"
	mClientFailovers        = "rpc_client_failovers_total"
	mClientFallbackCalls    = "rpc_client_fallback_calls_total"
	mClientCallNS           = "rpc_client_call_ns"
	mClientIssued           = "rpc_client_issued_total"
	mClientFailed           = "rpc_client_failed_total"
	mClientStageNS          = "rpc_client_stage_ns"
	mClientAdjustments      = "rpc_client_adjustments_total"
	mClientMsgBytes         = "rpc_client_msg_bytes"
	mClientMsgClass         = "rpc_client_msg_class"
	mClientMsgClassRepeats  = "rpc_client_msg_class_repeats_total"
	mClientPoolPrefix       = "rpc_client_pool"

	// Multi-rail selector families. Rail-to-rail failover happens before —
	// and usually instead of — the rpc_client_failovers_total IB→IPoIB
	// breaker path, so a healthy multi-rail outage shows rpc_rail_failovers
	// climbing while fallback_calls stays flat.
	mRailCalls     = "rpc_rail_calls_total"
	mRailFailovers = "rpc_rail_failovers_total"
	mRailProbes    = "rpc_rail_probes_total"
	mRailRestores  = "rpc_rail_restores_total"
	mRailUnhealthy = "rpc_rail_unhealthy"
)

// serverMetrics holds the server's pre-resolved instruments. The zero value
// (nil fields) is inert, so an uninstrumented server pays only nil checks.
type serverMetrics struct {
	reg              *metrics.Registry
	callQueueDepth   *metrics.Gauge
	responderBacklog *metrics.Gauge
	handlersBusy     *metrics.Gauge
	connections      *metrics.Gauge
	callsReceived    *metrics.Counter
	callsHandled     *metrics.Counter
	callErrors       *metrics.Counter
	callsShed        *metrics.Counter
	callsExpired     *metrics.Counter
	bytesIn          *metrics.Counter
	bytesOut         *metrics.Counter
}

func newServerMetrics(r *metrics.Registry) serverMetrics {
	if r == nil {
		return serverMetrics{}
	}
	return serverMetrics{
		reg:              r,
		callQueueDepth:   r.Gauge(mServerCallQueueDepth),
		responderBacklog: r.Gauge(mServerResponderBacklog),
		handlersBusy:     r.Gauge(mServerHandlersBusy),
		connections:      r.Gauge(mServerConnections),
		callsReceived:    r.Counter(mServerCallsReceived),
		callsHandled:     r.Counter(mServerCallsHandled),
		callErrors:       r.Counter(mServerCallErrors),
		callsShed:        r.Counter(mServerCallsShed),
		callsExpired:     r.Counter(mServerCallsExpired),
		bytesIn:          r.Counter(mServerBytesIn),
		bytesOut:         r.Counter(mServerBytesOut),
	}
}

// methodDef is everything the server keeps per <protocol,method>: the
// registered implementation, the shadow-pool history key of its responses,
// and its stage histograms (nil without a registry). It is built once, at
// Register, so the per-call path builds no label and takes no registry lock.
type methodDef struct {
	protocol, method string
	newParam         func() wire.Writable
	fn               MethodFunc
	respKey          string

	serialize, alloc, transport, handle, respond *metrics.Histogram
}

func (m *serverMetrics) newMethodDef(protocol, method string, newParam func() wire.Writable, fn MethodFunc) *methodDef {
	md := &methodDef{protocol: protocol, method: method, newParam: newParam, fn: fn,
		respKey: poolKey(protocol, method) + "#r"}
	if r := m.reg; r != nil {
		md.serialize = r.Histogram(metrics.Labels(mServerStageNS, "protocol", protocol, "method", method, "stage", stageSerialize), nil)
		md.alloc = r.Histogram(metrics.Labels(mServerStageNS, "protocol", protocol, "method", method, "stage", stageAlloc), nil)
		md.transport = r.Histogram(metrics.Labels(mServerStageNS, "protocol", protocol, "method", method, "stage", stageTransport), nil)
		md.handle = r.Histogram(metrics.Labels(mServerStageNS, "protocol", protocol, "method", method, "stage", stageHandle), nil)
		md.respond = r.Histogram(metrics.Labels(mServerStageNS, "protocol", protocol, "method", method, "stage", stageRespond), nil)
	}
	return md
}

// clientMetrics holds the client's pre-resolved instruments.
type clientMetrics struct {
	reg              *metrics.Registry
	connections      *metrics.Gauge
	outstanding      *metrics.Gauge
	calls            *metrics.Counter
	errors           *metrics.Counter
	timeouts         *metrics.Counter
	retries          *metrics.Counter
	policyRetries    *metrics.Counter
	bytesOut         *metrics.Counter
	deadlineExceeded *metrics.Counter
	busyRejections   *metrics.Counter
	breakerOpens     *metrics.Counter
	breakerHalfOpens *metrics.Counter
	breakerCloses    *metrics.Counter
	breakerReopens   *metrics.Counter
	breakerOpenGauge *metrics.Gauge
	failovers        *metrics.Counter
	fallbackCalls    *metrics.Counter
	railFailovers    *metrics.Counter
	railProbes       *metrics.Counter
	railRestores     *metrics.Counter
	railUnhealthy    *metrics.Gauge
}

func newClientMetrics(r *metrics.Registry) clientMetrics {
	if r == nil {
		return clientMetrics{}
	}
	return clientMetrics{
		reg:              r,
		connections:      r.Gauge(mClientConnections),
		outstanding:      r.Gauge(mClientOutstanding),
		calls:            r.Counter(mClientCalls),
		errors:           r.Counter(mClientErrors),
		timeouts:         r.Counter(mClientTimeouts),
		retries:          r.Counter(mClientReconnects),
		policyRetries:    r.Counter(mClientRetries),
		bytesOut:         r.Counter(mClientBytesOut),
		deadlineExceeded: r.Counter(mClientDeadlineExceeded),
		busyRejections:   r.Counter(mClientBusy),
		breakerOpens:     r.Counter(mClientBreakerOpens),
		breakerHalfOpens: r.Counter(mClientBreakerHalfOpens),
		breakerCloses:    r.Counter(mClientBreakerCloses),
		breakerReopens:   r.Counter(mClientBreakerReopens),
		breakerOpenGauge: r.Gauge(mClientBreakerOpen),
		failovers:        r.Counter(mClientFailovers),
		fallbackCalls:    r.Counter(mClientFallbackCalls),
		railFailovers:    r.Counter(mRailFailovers),
		railProbes:       r.Counter(mRailProbes),
		railRestores:     r.Counter(mRailRestores),
		railUnhealthy:    r.Gauge(mRailUnhealthy),
	}
}

// railCalls returns the per-rail call counter. Registered lazily per rail by
// the rail selector, so single-rail runs only carry the plain rail families.
func (m *clientMetrics) railCalls(rail int) *metrics.Counter {
	if m.reg == nil {
		return nil
	}
	return m.reg.Counter(metrics.Labels(mRailCalls, "rail", railLabel(rail)))
}

// clientKind is everything the client keeps per <protocol,method>: the
// shadow-pool history key, the two names as the request header carries them,
// and the kind's instruments (nil without a registry). It is resolved on the
// kind's first call and cached, so the steady-state call path builds no label
// and takes no registry lock.
//
// issued, failed and the rtt histogram's count form the balance invariant the
// fault-injection checker asserts after every run: issued == completed +
// failed. serialize, send and adjustments are Table I's columns; msgBytes,
// msgClass and classRepeats are Figure 3 (see profile.go for the views).
type clientKind struct {
	CallKind
	poolKey                string
	protocolUTF, methodUTF []byte // wire.EncodeUTF of the names

	issued, failed  *metrics.Counter
	rtt             *metrics.Histogram
	serialize, send *metrics.Histogram
	adjustments     *metrics.Counter
	msgBytes        *metrics.Histogram
	msgClass        *metrics.Gauge // size class of the kind's previous message
	classRepeats    *metrics.Counter
}

func (m *clientMetrics) newKind(k CallKind) *clientKind {
	ck := &clientKind{CallKind: k, poolKey: poolKey(k.Protocol, k.Method),
		protocolUTF: wire.EncodeUTF(k.Protocol), methodUTF: wire.EncodeUTF(k.Method)}
	if r := m.reg; r != nil {
		ck.issued = r.Counter(metrics.Labels(mClientIssued, "protocol", k.Protocol, "method", k.Method))
		ck.failed = r.Counter(metrics.Labels(mClientFailed, "protocol", k.Protocol, "method", k.Method))
		ck.rtt = r.Histogram(metrics.Labels(mClientCallNS, "protocol", k.Protocol, "method", k.Method), nil)
		ck.serialize = r.Histogram(metrics.Labels(mClientStageNS, "protocol", k.Protocol, "method", k.Method, "stage", stageSerialize), nil)
		ck.send = r.Histogram(metrics.Labels(mClientStageNS, "protocol", k.Protocol, "method", k.Method, "stage", stageSend), nil)
		ck.adjustments = r.Counter(metrics.Labels(mClientAdjustments, "protocol", k.Protocol, "method", k.Method))
		ck.msgBytes = r.Histogram(metrics.Labels(mClientMsgBytes, "protocol", k.Protocol, "method", k.Method), sizeClassBounds)
		ck.msgClass = r.Gauge(metrics.Labels(mClientMsgClass, "protocol", k.Protocol, "method", k.Method))
		ck.classRepeats = r.Counter(metrics.Labels(mClientMsgClassRepeats, "protocol", k.Protocol, "method", k.Method))
	}
	return ck
}

// sent is what one successful request send measured.
type sent struct {
	serialize, send time.Duration
	bytes           int
	adjustments     int64 // Algorithm-1 growths (baseline) or pool re-gets (RPCoIB)
}

// observe records one sent request. The previous size class lives in the
// registry, not in the client, so the repeat count follows the order in which
// all clients sharing the registry sent this kind.
func (ck *clientKind) observe(s sent) {
	if ck.msgBytes == nil {
		return
	}
	ck.serialize.ObserveDuration(s.serialize)
	ck.send.ObserveDuration(s.send)
	ck.adjustments.Add(s.adjustments)
	ck.msgBytes.Observe(int64(s.bytes))
	class := int64(SizeClass(s.bytes))
	if ck.msgClass.Swap(class) == class {
		ck.classRepeats.Inc()
	}
}

// stamp reads the clock for a reading that someone consumes (on) and is 0
// otherwise: a real-mode clock read is a measurable share of a small call.
// A simulated clock read has no side effect, so skipping one moves nothing.
func stamp(e exec.Env, on bool) time.Duration {
	if on {
		return e.Now()
	}
	return 0
}

// observeSince records e.Now()-start into h (no-op on nil histogram),
// reading the clock only when someone is listening so uninstrumented runs
// take the exact same Env call sequence as before.
func observeSince(h *metrics.Histogram, e exec.Env, start time.Duration) {
	if h != nil {
		h.ObserveDuration(e.Now() - start)
	}
}
