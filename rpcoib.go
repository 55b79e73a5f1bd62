// Package rpcoib is the public facade of this repository: a Go
// reproduction of "High-Performance Design of Hadoop RPC with RDMA over
// InfiniBand" (Lu et al., ICPP 2013).
//
// The package re-exports the pieces a downstream user composes:
//
//   - the RPC engine itself (Client, Server, Writable serialization) with
//     the paper's two wire paths — the default Hadoop-RPC socket design and
//     RPCoIB's pooled, RDMA-backed design — selectable per Options.Mode
//     (the paper's rpc.ib.enabled switch);
//   - the asynchronous call layer: CallAsync futures, FanOut batches,
//     CallPolicy retry/backoff/deadline schedules, and the shared-client
//     Runtime that substrates route their RPC through;
//   - the history-based two-level buffer pool (NewBufferPool) and the
//     RDMAOutputStream that serializes into it;
//   - a real-TCP transport for running the engine as an ordinary Go RPC
//     system (NewTCPNetwork, RealEnv);
//   - the simulated testbed (NewCluster and friends) plus mini-HDFS,
//     mini-MapReduce and mini-HBase substrates for running the paper's
//     experiments at any scale on one machine.
//
// Quickstart (real TCP):
//
//	env := rpcoib.NewRealEnv(1)
//	nw := rpcoib.NewTCPNetwork("")
//	srv := rpcoib.NewServer(nw, rpcoib.Options{Mode: rpcoib.ModeRPCoIB})
//	srv.Register("demo.Proto", "echo",
//	    func() rpcoib.Writable { return &rpcoib.BytesWritable{} },
//	    func(e rpcoib.Env, p rpcoib.Writable) (rpcoib.Writable, error) { return p, nil })
//	srv.Start(env, 0)
//	client := rpcoib.NewClient(nw, rpcoib.Options{Mode: rpcoib.ModeRPCoIB})
//	var reply rpcoib.BytesWritable
//	client.Call(env, srv.Addr(), "demo.Proto", "echo",
//	    &rpcoib.BytesWritable{Value: []byte("hi")}, &reply)
//
// See examples/ for runnable programs and EXPERIMENTS.md for the
// paper-reproduction results.
package rpcoib

import (
	"rpcoib/internal/bufpool"
	"rpcoib/internal/cluster"
	"rpcoib/internal/core"
	"rpcoib/internal/exec"
	"rpcoib/internal/perfmodel"
	"rpcoib/internal/transport"
	"rpcoib/internal/wire"
)

// ---- RPC engine ----

// Mode selects the RPC wire path (the paper's rpc.ib.enabled).
type Mode = core.Mode

// The two wire paths.
const (
	ModeBaseline = core.ModeBaseline
	ModeRPCoIB   = core.ModeRPCoIB
)

// Options configures clients and servers.
type Options = core.Options

// Client issues RPC calls.
type Client = core.Client

// Server serves registered protocols.
type Server = core.Server

// MethodFunc is a server-side method implementation.
type MethodFunc = core.MethodFunc

// RemoteError is a server-side failure delivered to a caller.
type RemoteError = core.RemoteError

// ---- async calls, retry policies, shared runtimes ----

// Future is the completion handle of one asynchronous call (Client.CallAsync);
// collect it with Wait or poll with TryWait.
type Future = core.Future

// CallPolicy drives client-layer retries: attempt count, exponential backoff
// with seeded jitter, and an overall deadline (Client.CallWith / CallPolicy.Do).
type CallPolicy = core.CallPolicy

// FanOutCall names one call of a concurrent batch for Client.FanOut.
type FanOutCall = core.FanOutCall

// Runtime is a per-deployment cache of shared clients keyed by
// <node, protocol-config>, Hadoop's RPC.getProxy cache.
type Runtime = core.Runtime

// NewRuntime creates an empty shared-client runtime.
func NewRuntime() *Runtime { return core.NewRuntime() }

// WaitAll waits on every future in order and returns the first error seen.
func WaitAll(e Env, futs []*Future) error { return core.WaitAll(e, futs) }

// RetryTransient is the default CallWith predicate: retry connection-level
// failures, not server-side errors or timeouts.
func RetryTransient(err error) bool { return core.RetryTransient(err) }

// Sentinel errors of the call path.
var (
	// ErrTimeout reports a call that exceeded its timeout.
	ErrTimeout = core.ErrTimeout
	// ErrClosed reports a connection torn down with calls in flight.
	ErrClosed = core.ErrClosed
)

// RDMAOutputStream serializes directly into pooled registered buffers.
type RDMAOutputStream = core.RDMAOutputStream

// NewRDMAOutputStreamForBench acquires a pooled serialization stream for a
// call kind (exposed for benchmarks and custom integrations).
func NewRDMAOutputStreamForBench(pool *BufferPool, key string) *RDMAOutputStream {
	return core.NewRDMAOutputStream(pool, key)
}

// NewClient creates an RPC client over a transport.
func NewClient(nw transport.Network, opts Options) *Client { return core.NewClient(nw, opts) }

// NewServer creates an RPC server over a transport.
func NewServer(nw transport.Network, opts Options) *Server { return core.NewServer(nw, opts) }

// ---- serialization ----

// Writable is Hadoop's serialization contract.
type Writable = wire.Writable

// DataOutput encodes primitives; DataInput decodes them.
type (
	DataOutput = wire.DataOutput
	DataInput  = wire.DataInput
)

// DataOutputBuffer is the baseline growable buffer (Algorithm 1).
type DataOutputBuffer = wire.DataOutputBuffer

// Standard Writable value types.
type (
	IntWritable     = wire.IntWritable
	LongWritable    = wire.LongWritable
	VLongWritable   = wire.VLongWritable
	BooleanWritable = wire.BooleanWritable
	DoubleWritable  = wire.DoubleWritable
	Text            = wire.Text
	BytesWritable   = wire.BytesWritable
	NullWritable    = wire.NullWritable
	StringsWritable = wire.StringsWritable
)

// ---- buffer pool ----

// BufferPool is the paper's history-based two-level buffer pool.
type BufferPool = bufpool.ShadowPool

// PoolPolicy selects the buffer-sizing policy (history is the paper's).
type PoolPolicy = bufpool.Policy

// Pool policies (PolicyHistory is RPCoIB's design; the others exist for the
// ablation benchmarks).
const (
	PolicyHistory    = bufpool.PolicyHistory
	PolicyFixedSmall = bufpool.PolicyFixedSmall
	PolicyFixedLarge = bufpool.PolicyFixedLarge
	PolicyNoPool     = bufpool.PolicyNoPool
)

// NewBufferPool builds a two-level pool with the given policy.
func NewBufferPool(policy PoolPolicy) *BufferPool {
	return bufpool.NewShadowPool(bufpool.NewNativePool(0), policy)
}

// ---- execution environments & transports ----

// Env abstracts real and simulated execution.
type Env = exec.Env

// NewRealEnv returns the goroutine/wall-clock environment.
func NewRealEnv(seed int64) Env { return exec.NewRealEnv(seed) }

// Network is the message transport contract.
type Network = transport.Network

// NewTCPNetwork returns the real-mode TCP transport.
func NewTCPNetwork(host string) Network { return transport.NewTCPNetwork(host) }

// ---- simulation testbed ----

// Cluster is the simulated testbed used by the paper experiments.
type Cluster = cluster.Cluster

// ClusterConfig sizes a simulated cluster.
type ClusterConfig = cluster.Config

// NewCluster builds a simulated cluster.
func NewCluster(cfg ClusterConfig) *Cluster { return cluster.New(cfg) }

// ClusterA returns the paper's 65-node testbed configuration.
func ClusterA(nodes int) ClusterConfig { return cluster.ClusterA(nodes) }

// ClusterB returns the paper's 9-node testbed configuration.
func ClusterB() ClusterConfig { return cluster.ClusterB() }

// LinkKind selects a simulated interconnect.
type LinkKind = perfmodel.LinkKind

// The paper's four interconnects.
const (
	OneGigE  = perfmodel.OneGigE
	TenGigE  = perfmodel.TenGigE
	IPoIB    = perfmodel.IPoIB
	NativeIB = perfmodel.NativeIB
)
