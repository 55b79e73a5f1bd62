package hbase

import (
	"fmt"
	"sync"
	"time"

	"rpcoib/internal/core"
	"rpcoib/internal/exec"
	"rpcoib/internal/netsim"
	"rpcoib/internal/wire"
)

// MasterInterface is the HMaster RPC protocol name.
const MasterInterface = "hbase.HMasterInterface"

const masterPort = 60000

// Service-time model for the HMaster's in-memory ServerManager maps.
const (
	startupCPU = 60 * time.Microsecond // server registration, assignment bookkeeping
	reportCPU  = 25 * time.Microsecond // load-map update per report
	statusCPU  = 35 * time.Microsecond // cluster-status aggregation
)

// RSReportParam is one region server's periodic load report — the HMsg
// heartbeat that keeps the master's ServerManager current. A report from a
// server the master has not seen (re)registers it, so a startup call shed
// under overload heals itself on the next report tick.
type RSReportParam struct {
	Server        int32
	Requests      int64 // operations served since start
	MemstoreBytes int64
	StoreFiles    int32
}

func (p *RSReportParam) Write(out *wire.DataOutput) {
	out.WriteInt32(p.Server)
	out.WriteInt64(p.Requests)
	out.WriteInt64(p.MemstoreBytes)
	out.WriteInt32(p.StoreFiles)
}

func (p *RSReportParam) ReadFields(in *wire.DataInput) {
	p.Server = in.ReadInt32()
	p.Requests = in.ReadInt64()
	p.MemstoreBytes = in.ReadInt64()
	p.StoreFiles = in.ReadInt32()
}

// ClusterStatus is the getClusterStatus reply: the master's aggregate view.
type ClusterStatus struct {
	LiveServers int32
	Reports     int64
	Requests    int64 // sum of the latest per-server request counts
}

func (p *ClusterStatus) Write(out *wire.DataOutput) {
	out.WriteInt32(p.LiveServers)
	out.WriteInt64(p.Reports)
	out.WriteInt64(p.Requests)
}

func (p *ClusterStatus) ReadFields(in *wire.DataInput) {
	p.LiveServers = in.ReadInt32()
	p.Reports = in.ReadInt64()
	p.Requests = in.ReadInt64()
}

// HMaster is the cluster coordinator: region servers register at startup and
// report load periodically; clients ask it for cluster status. Its RPC server
// rides the same scale path as the NameNode — admission control via
// Options.Overloaded (typically an ibverbs.MemoryBudget.Exhausted hook) with
// ShedOverload/BusyBackoff, so a master drowning in reports sheds them with
// "too busy" instead of queueing without bound, and the reporters' CallPolicy
// backs off until the budget frees.
type HMaster struct {
	h    *HBase
	node int
	srv  *core.Server

	mu       sync.Mutex
	live     map[int32]RSReportParam // latest report per registered server
	startups int64
	reports  int64
}

func (m *HMaster) run(e exec.Env) {
	srv := core.NewServer(m.h.net(m.node), core.Options{
		Mode: m.h.rpcMode(), Costs: m.h.c.Costs,
		Metrics: m.h.cfg.Metrics, Trace: m.h.cfg.Trace, Handlers: 10,
		ShedOverload: m.h.cfg.MasterShedOverload,
		BusyBackoff:  m.h.cfg.MasterBusyBackoff,
		Overloaded:   m.h.cfg.MasterOverloaded,
	})
	srv.Register(MasterInterface, "regionServerStartup",
		func() wire.Writable { return &wire.IntWritable{} }, m.regionServerStartup)
	srv.Register(MasterInterface, "regionServerReport",
		func() wire.Writable { return &RSReportParam{} }, m.regionServerReport)
	srv.Register(MasterInterface, "getClusterStatus",
		func() wire.Writable { return &wire.NullWritable{} }, m.getClusterStatus)
	if err := srv.Start(e, masterPort); err != nil {
		panic(fmt.Sprintf("hmaster: %v", err))
	}
	m.srv = srv
}

func (m *HMaster) regionServerStartup(e exec.Env, p wire.Writable) (wire.Writable, error) {
	req := p.(*wire.IntWritable)
	e.Work(startupCPU)
	m.mu.Lock()
	if _, ok := m.live[req.Value]; !ok {
		m.live[req.Value] = RSReportParam{Server: req.Value}
	}
	m.startups++
	m.mu.Unlock()
	// The master hands back operational config, as real HBase does.
	return &wire.LongWritable{Value: m.h.cfg.MemstoreFlushSize}, nil
}

func (m *HMaster) regionServerReport(e exec.Env, p wire.Writable) (wire.Writable, error) {
	rep := p.(*RSReportParam)
	e.Work(reportCPU)
	m.mu.Lock()
	m.live[rep.Server] = *rep
	m.reports++
	m.mu.Unlock()
	return &wire.IntWritable{Value: rep.Server}, nil
}

func (m *HMaster) getClusterStatus(e exec.Env, p wire.Writable) (wire.Writable, error) {
	e.Work(statusCPU)
	m.mu.Lock()
	defer m.mu.Unlock()
	st := &ClusterStatus{LiveServers: int32(len(m.live)), Reports: m.reports}
	for _, rep := range m.live {
		st.Requests += rep.Requests
	}
	return st, nil
}

// Startups and Reports count served registrations and load reports.
func (m *HMaster) Startups() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.startups
}

func (m *HMaster) Reports() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.reports
}

// LiveServers returns how many region servers the master considers live.
func (m *HMaster) LiveServers() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.live)
}

// Master returns the deployed HMaster, nil unless Config.DeployMaster.
func (h *HBase) Master() *HMaster { return h.master }

// MasterAddr returns the HMaster's RPC address.
func (h *HBase) MasterAddr() string { return netsim.Addr(h.cfg.Master, masterPort) }

// Runtime exposes the deployment's shared client runtime (fault-injection
// invariant checks walk its clients after a run).
func (h *HBase) Runtime() *core.Runtime { return h.rt }

// Stop halts the region servers' report loops and the HMaster server. A
// no-op on master-less deployments.
func (h *HBase) Stop() {
	if h.stopQ != nil {
		h.stopQ.Close()
	}
	if h.master != nil && h.master.srv != nil {
		h.master.srv.Stop()
	}
}

// masterClient returns the node's shared master-facing RPC client. Master
// traffic (startup, reports, status) lives under its own runtime key so
// data-path region-server connections are not disturbed by master backoff.
func (h *HBase) masterClient(node int) *core.Client {
	return h.rt.Client(node, "hbase-master-rpc", func() *core.Client {
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

// reportLoop is a region server's master heartbeat: register once, then
// report load every ReportInterval until Stop. Shed or timed-out calls are
// dropped on the floor — the next tick carries fresher numbers anyway, and a
// dropped startup is healed by the report handler's implicit registration.
func (rs *RegionServer) reportLoop(e exec.Env) {
	mc := rs.h.masterClient(rs.node)
	addr := rs.h.MasterAddr()
	var flushSize wire.LongWritable
	mc.Call(e, addr, MasterInterface, "regionServerStartup",
		&wire.IntWritable{Value: int32(rs.index)}, &flushSize)
	for {
		_, ok, timedOut := rs.h.stopQ.GetTimeout(e, rs.h.cfg.ReportInterval)
		if !timedOut && !ok {
			return
		}
		rep := &RSReportParam{
			Server:        int32(rs.index),
			Requests:      rs.Gets + rs.Puts,
			MemstoreBytes: rs.memstoreBytes,
			StoreFiles:    int32(len(rs.stores)),
		}
		var ack wire.IntWritable
		mc.Call(e, addr, MasterInterface, "regionServerReport", rep, &ack)
	}
}
