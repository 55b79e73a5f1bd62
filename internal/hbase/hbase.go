// Package hbase implements the mini-HBase substrate for the paper's Figure 8
// experiments: HRegionServers with MemStores, a local WAL, HDFS-backed store
// file flushes, and Get/Put/multiPut served over the RPC engine. The
// client-to-region-server transport ("HBase" in the figure legends:
// socket-based or HBaseoIB) and the Hadoop RPC mode used underneath by HDFS
// ("RPC": sockets or RPCoIB) are configured independently, exactly matching
// the paper's five configurations.
package hbase

import (
	"fmt"
	"time"

	"rpcoib/internal/cluster"
	"rpcoib/internal/core"
	"rpcoib/internal/exec"
	"rpcoib/internal/hdfs"
	"rpcoib/internal/metrics"
	"rpcoib/internal/netsim"
	"rpcoib/internal/perfmodel"
	"rpcoib/internal/tracing"
	"rpcoib/internal/transport"
	"rpcoib/internal/wire"
)

// RegionInterface is the HBase RPC protocol name.
const RegionInterface = "hbase.HRegionInterface"

const rsPort = 60020

// Service-time model for HBase 0.90-era region servers.
const (
	getCPU       = 250 * time.Microsecond // KeyValue scan through store layers
	putCPU       = 12 * time.Microsecond  // MemStore insert per row
	walSyncCPU   = 40 * time.Microsecond  // group-commit bookkeeping per batch
	blockReadKB  = 64                     // HFile block fetched on cache miss
	clientPutCPU = 90 * time.Microsecond  // HTable put path: KeyValue build, buffer mgmt
	clientGetCPU = 40 * time.Microsecond  // HTable get path: request build, result parse
)

// Config selects a mini-HBase deployment.
type Config struct {
	// Master hosts the HMaster (bookkeeping only; clients cache regions).
	Master int
	// RegionServers hosts one HRegionServer each.
	RegionServers []int
	// HBaseRDMA makes client<->region-server traffic use verbs (HBaseoIB).
	HBaseRDMA bool
	// HBaseKind is the socket fabric when HBaseRDMA is off.
	HBaseKind perfmodel.LinkKind
	// MemstoreFlushSize triggers a store-file flush (default 64 MB).
	MemstoreFlushSize int64
	// CacheMissRatio is the fraction of Gets that must read an HFile block
	// from HDFS (block cache miss).
	CacheMissRatio float64
	// WriteBufferSize is the client-side Put buffer (default 2 MB, the
	// HBase autoflush-off batching YCSB uses).
	WriteBufferSize int64
	// Trace streams distributed spans from the region-server RPC endpoints
	// and client batch operations when set.
	Trace *tracing.Tracer
	// Metrics, when non-nil, instruments the region-server RPC endpoints.
	Metrics *metrics.Registry
	// RPCPolicy is applied to every client RPC (retries, deadlines); the zero
	// value keeps single-attempt calls.
	RPCPolicy core.CallPolicy
	// RPCFailover arms the clients' circuit breakers (verbs → IPoIB socket
	// failover under HBaseRDMA).
	RPCFailover bool
	// RPCCallTimeout overrides the per-attempt call timeout
	// (core.DefaultCallTimeout if 0).
	RPCCallTimeout time.Duration
	// DeployMaster spawns an HMaster on Master and arms region-server load
	// reports to it. Off by default: bookkeeping-only deployments keep the
	// historical traffic (and event schedule) byte-identical.
	DeployMaster bool
	// ReportInterval is the region-server load-report period when the master
	// is deployed (default 1 s).
	ReportInterval time.Duration
	// MasterShedOverload, MasterBusyBackoff, and MasterOverloaded wire the
	// HMaster's admission control — the same scale path as the NameNode's
	// RPCShedOverload knobs. MasterOverloaded typically binds to an
	// ibverbs.MemoryBudget.Exhausted hook.
	MasterShedOverload bool
	MasterBusyBackoff  time.Duration
	MasterOverloaded   func() bool
	// ClientCacheCap caps the deployment's shared client runtime (LRU;
	// evicted clients are closed) when > 0.
	ClientCacheCap int
}

func (c Config) withDefaults() Config {
	if c.MemstoreFlushSize <= 0 {
		c.MemstoreFlushSize = 64 << 20
	}
	if c.WriteBufferSize <= 0 {
		c.WriteBufferSize = 2 << 20
	}
	if c.DeployMaster && c.ReportInterval <= 0 {
		c.ReportInterval = time.Second
	}
	return c
}

// HBase is a deployed mini-HBase instance over HDFS.
type HBase struct {
	c      *cluster.Cluster
	cfg    Config
	dfs    *hdfs.HDFS
	rss    []*RegionServer
	rt     *core.Runtime
	master *HMaster
	stopQ  exec.Queue
}

// Deploy spawns the region servers (and, with Config.DeployMaster, the
// HMaster they report to). dfs may be nil (no flush/read I/O, for unit
// tests).
func Deploy(c *cluster.Cluster, cfg Config, dfs *hdfs.HDFS) *HBase {
	cfg = cfg.withDefaults()
	h := &HBase{c: c, cfg: cfg, dfs: dfs, rt: core.NewRuntime()}
	if cfg.ClientCacheCap > 0 {
		h.rt.SetCacheCap(cfg.ClientCacheCap)
	}
	spawnRegionServers := func() {
		for i, node := range cfg.RegionServers {
			rs := &RegionServer{h: h, index: i, node: node}
			h.rss = append(h.rss, rs)
			c.SpawnOn(node, fmt.Sprintf("regionserver-%d", i), rs.run)
		}
	}
	if !cfg.DeployMaster {
		spawnRegionServers()
		return h
	}
	h.master = &HMaster{h: h, node: cfg.Master, live: map[int32]RSReportParam{}}
	c.SpawnOn(cfg.Master, "hmaster", func(e exec.Env) {
		h.stopQ = e.NewQueue(0)
		h.master.run(e)
		// Region servers start after the master is listening, as HBase's
		// startup ordering does; their first act is registering with it.
		spawnRegionServers()
	})
	return h
}

// RegionServers returns the deployed servers.
func (h *HBase) RegionServers() []*RegionServer { return h.rss }

func (h *HBase) net(node int) transport.Network {
	if h.cfg.HBaseRDMA {
		return h.c.RPCoIBNet(node)
	}
	return h.c.SocketNet(h.cfg.HBaseKind, node)
}

func (h *HBase) rpcMode() core.Mode {
	if h.cfg.HBaseRDMA {
		return core.ModeRPCoIB
	}
	return core.ModeBaseline
}

// rpcClient returns the node's shared HBase RPC client. All HClients on a
// node route through it, so region-server connections (and the warmed RPCoIB
// buffer pools behind them) are reused across tables and flushes.
func (h *HBase) rpcClient(node int) *core.Client {
	return h.rt.Client(node, "hbase-rpc", func() *core.Client {
		return core.NewClient(h.net(node), core.Options{
			Mode: h.rpcMode(), Costs: h.c.Costs,
			Metrics:     h.cfg.Metrics,
			Trace:       h.cfg.Trace,
			Policy:      h.cfg.RPCPolicy,
			CallTimeout: h.cfg.RPCCallTimeout,
			Failover:    h.cfg.RPCFailover,
		})
	})
}

// regionOf maps a row key to its region server index (clients cache this,
// as real HBase clients cache .META.).
func (h *HBase) regionOf(row string) int {
	var hash uint32 = 2166136261
	for i := 0; i < len(row); i++ {
		hash = (hash ^ uint32(row[i])) * 16777619
	}
	return int(hash % uint32(len(h.rss)))
}

// RSAddr returns a region server's RPC address.
func (h *HBase) RSAddr(i int) string { return netsim.Addr(h.cfg.RegionServers[i], rsPort) }

// storeFile is one flushed HFile in HDFS.
type storeFile struct {
	path string
	size int64
}

// compactionThreshold is the store-file count that triggers a minor
// compaction (hbase.hstore.compactionThreshold).
const compactionThreshold = 3

// RegionServer owns a share of the key space: a MemStore, a WAL on the
// local disk, and flushed store files in HDFS, compacted when they pile up.
type RegionServer struct {
	h     *HBase
	index int
	node  int

	memstoreBytes int64
	records       int64
	stores        []storeFile
	nextStore     int
	flushing      bool
	compacting    bool

	// Gets, Puts, Flushes and Compactions count served operations.
	Gets        int64
	Puts        int64
	Flushes     int64
	Misses      int64
	Compactions int64
}

func (rs *RegionServer) run(e exec.Env) {
	srv := core.NewServer(rs.h.net(rs.node), core.Options{
		Mode: rs.h.rpcMode(), Costs: rs.h.c.Costs,
		Metrics: rs.h.cfg.Metrics, Trace: rs.h.cfg.Trace, Handlers: 10,
	})
	srv.Register(RegionInterface, "get",
		func() wire.Writable { return &GetParam{} }, rs.get)
	srv.Register(RegionInterface, "put",
		func() wire.Writable { return &PutParam{} }, rs.put)
	srv.Register(RegionInterface, "multiPut",
		func() wire.Writable { return &MultiPutParam{} }, rs.multiPut)
	srv.Register(RegionInterface, "multiGet",
		func() wire.Writable { return &MultiGetParam{} }, rs.multiGet)
	if err := srv.Start(e, rsPort); err != nil {
		panic(fmt.Sprintf("regionserver %d: %v", rs.index, err))
	}
	if rs.h.cfg.DeployMaster {
		e.Spawn(fmt.Sprintf("rs%d-report", rs.index), rs.reportLoop)
	}
}

func (rs *RegionServer) get(e exec.Env, p wire.Writable) (wire.Writable, error) {
	req := p.(*GetParam)
	rs.Gets++
	e.Work(getCPU)
	if err := rs.maybeCacheMiss(e); err != nil {
		return nil, err
	}
	value := make([]byte, req.ValueSize)
	return &Result{Exists: true, Value: value}, nil
}

// multiGet serves a batched read: one scan per row, with each row rolling
// the block-cache-miss dice independently, exactly as the rows would under
// single gets.
func (rs *RegionServer) multiGet(e exec.Env, p wire.Writable) (wire.Writable, error) {
	req := p.(*MultiGetParam)
	rs.Gets += int64(req.Count)
	e.Work(time.Duration(req.Count) * getCPU)
	for i := int32(0); i < req.Count; i++ {
		if err := rs.maybeCacheMiss(e); err != nil {
			return nil, err
		}
	}
	total := int64(req.Count) * int64(req.ValueSize)
	real := total
	if real > maxRealPayload {
		real = maxRealPayload
	}
	return &MultiGetResult{Count: req.Count, TotalBytes: total,
		payload: make([]byte, real)}, nil
}

// maybeCacheMiss models a block-cache miss: fetch one HFile block from HDFS —
// a NameNode getBlockLocations RPC plus a positioned read of the (node-local,
// thanks to local-writer placement) replica.
func (rs *RegionServer) maybeCacheMiss(e exec.Env) error {
	if rs.h.dfs == nil || len(rs.stores) == 0 || e.Rand().Float64() >= rs.h.cfg.CacheMissRatio {
		return nil
	}
	rs.Misses++
	dfs := rs.h.dfs.Client(rs.node)
	path := rs.stores[e.Rand().Intn(len(rs.stores))].path
	if _, err := dfs.Locate(e, path); err != nil {
		return err
	}
	se := cluster.SimEnvOf(e)
	rs.h.c.Node(rs.node).Disk.Read(se.Proc(), blockReadKB<<10)
	return nil
}

func (rs *RegionServer) put(e exec.Env, p wire.Writable) (wire.Writable, error) {
	req := p.(*PutParam)
	rs.applyPuts(e, 1, int64(len(req.Value)))
	return &wire.BooleanWritable{Value: true}, nil
}

func (rs *RegionServer) multiPut(e exec.Env, p wire.Writable) (wire.Writable, error) {
	req := p.(*MultiPutParam)
	rs.applyPuts(e, int64(req.Count), req.TotalBytes)
	return &wire.IntWritable{Value: req.Count}, nil
}

func (rs *RegionServer) applyPuts(e exec.Env, count, bytes int64) {
	rs.Puts += count
	e.Work(walSyncCPU + time.Duration(count)*putCPU)
	// WAL group commit: one sequential append per batch.
	se := cluster.SimEnvOf(e)
	rs.h.c.Node(rs.node).Disk.WriteStream(se.Proc(), int64(rs.index)+1<<50, bytes)
	rs.memstoreBytes += bytes
	rs.records += count
	rs.maybeFlush(e)
}

// maybeFlush starts a background flush when the MemStore is over threshold
// and none is running.
func (rs *RegionServer) maybeFlush(e exec.Env) {
	if rs.memstoreBytes < rs.h.cfg.MemstoreFlushSize || rs.flushing {
		return
	}
	rs.flushing = true
	size := rs.memstoreBytes
	rs.memstoreBytes = 0
	rs.nextStore++
	n := rs.nextStore
	e.Spawn("rs-flush", func(fe exec.Env) { rs.flush(fe, n, size) })
}

// flush writes the frozen MemStore as an HDFS store file — the operation
// whose NameNode RPC traffic (create/addBlock/complete/blockReceived) makes
// Put-heavy workloads sensitive to the Hadoop RPC design.
func (rs *RegionServer) flush(e exec.Env, n int, size int64) {
	rs.Flushes++
	if rs.h.dfs == nil {
		se := cluster.SimEnvOf(e)
		rs.h.c.Node(rs.node).Disk.WriteStream(se.Proc(), int64(rs.index)+2<<50, size)
		rs.flushing = false
		return
	}
	dfs := rs.h.dfs.Client(rs.node)
	path := fmt.Sprintf("/hbase/t/region-%d/store-%d", rs.index, n)
	if err := dfs.CreateFile(e, path, size, 3); err != nil {
		panic(fmt.Sprintf("regionserver %d flush: %v", rs.index, err))
	}
	rs.stores = append(rs.stores, storeFile{path: path, size: size})
	if len(rs.stores) >= compactionThreshold && !rs.compacting {
		rs.compacting = true
		e.Spawn("rs-compact", rs.compact)
	}
	// The MemStore may have refilled while this flush ran.
	rs.flushing = false
	rs.maybeFlush(e)
}

// compact merges every store file into one: read them all back from HDFS,
// write the merged file, delete the inputs — the background churn that makes
// mixed workloads the most HDFS- (and therefore RPC-) intensive case the
// paper evaluates.
func (rs *RegionServer) compact(e exec.Env) {
	defer func() { rs.compacting = false }()
	inputs := append([]storeFile(nil), rs.stores...)
	if len(inputs) < 2 {
		return
	}
	rs.Compactions++
	dfs := rs.h.dfs.Client(rs.node)
	var total int64
	for _, sf := range inputs {
		n, err := dfs.ReadFile(e, sf.path)
		if err != nil {
			return // inputs raced with another compaction; give up quietly
		}
		total += n
	}
	rs.nextStore++
	merged := fmt.Sprintf("/hbase/t/region-%d/store-%d", rs.index, rs.nextStore)
	if err := dfs.CreateFile(e, merged, total, 3); err != nil {
		panic(fmt.Sprintf("regionserver %d compaction: %v", rs.index, err))
	}
	// Swap in the merged file, keeping any stores flushed meanwhile.
	fresh := []storeFile{{path: merged, size: total}}
	for _, sf := range rs.stores {
		used := false
		for _, in := range inputs {
			if in.path == sf.path {
				used = true
				break
			}
		}
		if !used {
			fresh = append(fresh, sf)
		}
	}
	rs.stores = fresh
	for _, sf := range inputs {
		dfs.Delete(e, sf.path)
	}
}
