package hdfs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"

	"rpcoib/internal/cluster"
	"rpcoib/internal/core"
	"rpcoib/internal/exec"
	"rpcoib/internal/sim"
	"rpcoib/internal/tracing"
	"rpcoib/internal/transport"
	"rpcoib/internal/wire"
)

// Data-transfer opcodes (the mini DataTransferProtocol).
const (
	opWriteBlock = 80
	opReadBlock  = 81
)

// DataNode stores block replicas, heartbeats to the NameNode, and serves the
// streaming data-transfer protocol (write pipelines and block reads).
type DataNode struct {
	h      *HDFS
	id     int32
	node   int
	rpc    *core.Client
	blocks map[int64]int64 // block id -> length
	dirty  *sim.Resource   // un-flushed page-cache bytes

	// PacketsIn counts data packets received on write pipelines.
	PacketsIn int64
}

func (dn *DataNode) reg() RegistrationID {
	return RegistrationID{
		NodeID:      dn.id,
		StorageID:   fmt.Sprintf("DS-%08d-10.1.0.%d-50010-1372889999%03d", dn.id*7919%99999999, dn.node, dn.id),
		InfoAddr:    dn.h.DataAddr(dn.node),
		CTime:       1372889999,
		LayoutVer:   -19,
		NamespaceID: 463031076,
	}
}

// run registers with the NameNode, starts the data server, sends the initial
// block report, and heartbeats until the deployment stops.
func (dn *DataNode) run(e exec.Env) {
	if err := dn.rpc.Call(e, dn.h.nnAddr, DatanodeProtocol, "register", ptr(dn.reg()), nil); err != nil {
		panic(fmt.Sprintf("datanode %d: register: %v", dn.id, err))
	}
	ln, err := dn.h.dataNet(dn.node).Listen(e, dataPort)
	if err != nil {
		panic(fmt.Sprintf("datanode %d: listen: %v", dn.id, err))
	}
	e.Spawn(fmt.Sprintf("dn%d-dataserver", dn.id), func(se exec.Env) { dn.serveData(se, ln) })
	// The initial block report is issued asynchronously and collected before
	// the first heartbeat: the DataNode serves pipeline traffic while the
	// (potentially large) report round-trips to the NameNode.
	reportFut := dn.rpc.CallAsync(e, dn.h.nnAddr, DatanodeProtocol, "blockReport",
		&BlockReportParam{Reg: dn.reg()}, nil)
	hbClient := dn.h.heartbeatClient(dn.node)
	for {
		_, ok, timedOut := dn.h.stopQ.GetTimeout(e, dn.h.cfg.HeartbeatInterval)
		if !timedOut && !ok {
			ln.Close()
			return
		}
		if reportFut != nil {
			reportFut.Wait(e)
			reportFut = nil
		}
		hb := &HeartbeatParam{Reg: dn.reg(), Capacity: 1 << 40,
			DfsUsed: int64(len(dn.blocks)) * dn.h.cfg.BlockSize, Remaining: 1 << 39}
		var reply HeartbeatReply
		if err := hbClient.Call(e, dn.h.nnAddr, DatanodeProtocol, "sendHeartbeat", hb, &reply); err == nil {
			for _, cmd := range reply.Commands {
				var blockID int64
				var target string
				if _, err := fmt.Sscanf(cmd, "replicate %d %s", &blockID, &target); err == nil {
					e.Spawn("dn-replicator", func(re exec.Env) { dn.replicateBlock(re, blockID, target) })
				}
			}
		}
	}
}

// replicateBlock copies a local replica to target (the repair transfer the
// NameNode commanded).
func (dn *DataNode) replicateBlock(e exec.Env, blockID int64, target string) {
	length, ok := dn.blocks[blockID]
	if !ok {
		return
	}
	conn, err := dn.h.dataNet(dn.node).Dial(e, target)
	if err != nil {
		return
	}
	defer conn.Close()
	if err := conn.Send(e, writeBlockHeader(blockID, nil, tracing.SpanContext{})); err != nil {
		return
	}
	if _, rel, err := conn.Recv(e); err != nil { // setup ack
		return
	} else {
		rel()
	}
	proc := cluster.ProcOf(e)
	disk := dn.h.c.Node(dn.node).Disk
	packet := int64(dn.h.cfg.PacketSize)
	rdma := dn.h.cfg.DataRDMA
	var seq int32
	for off := int64(0); off < length; off += packet {
		n := packet
		if off+n > length {
			n = length - off
		}
		disk.ReadStream(proc, blockID, n)
		e.Work(packetCPU(rdma, int(n)))
		hdr := packetHeader(seq, int32(n), off+n >= length)
		if err := transport.SendSized(e, conn, hdr, len(hdr)+int(n)); err != nil {
			return
		}
		dn.h.m.replicate.add(n)
		seq++
	}
	if _, rel, err := conn.Recv(e); err == nil { // final ack
		rel()
	}
}

func ptr[T any](v T) *T { return &v }

func (dn *DataNode) serveData(e exec.Env, ln transport.Listener) {
	for {
		conn, err := ln.Accept(e)
		if err != nil {
			return
		}
		e.Spawn(fmt.Sprintf("dn%d-xceiver", dn.id), func(se exec.Env) { dn.handleConn(se, conn) })
	}
}

// blockNotify is one in-flight blockReceived round trip plus the report it
// carried, kept so a shed notification can be re-sent: the NameNode learns of
// replicas only through these calls, so dropping one would strand the block
// below minimal replication forever.
type blockNotify struct {
	fut   *core.Future
	param *BlockReceivedParam
}

// collect waits on the async notification and re-sends it through the node's
// (policy-carrying) client when the NameNode shed it as "too busy": admission
// sheds are transient by contract, so the DataNode backs off and reports
// again rather than losing the replica.
func (dn *DataNode) collect(e exec.Env, n *blockNotify) error {
	err := n.fut.Wait(e)
	if err == nil || !errors.Is(err, core.ErrServerTooBusy) {
		return err
	}
	return dn.rpc.Call(e, dn.h.nnAddr, DatanodeProtocol, "blockReceived", n.param, nil)
}

// handleConn serves one data connection (an "xceiver" in HDFS terms). The
// blockReceived notification of each finished block is issued asynchronously
// and collected before the next block starts (or at connection teardown), so
// the NameNode round trip overlaps the writer's next pipeline setup.
func (dn *DataNode) handleConn(e exec.Env, conn transport.Conn) {
	defer conn.Close()
	var pending *blockNotify
	defer func() {
		if pending != nil {
			dn.collect(e, pending)
		}
	}()
	for {
		data, release, err := conn.Recv(e)
		if err != nil {
			return
		}
		in := wire.NewDataInput(data)
		op := in.ReadU8()
		switch op {
		case opWriteBlock:
			blockID := in.ReadInt64()
			var sc tracing.SpanContext
			if blockID < 0 {
				blockID = -blockID - 1
				sc = tracing.SpanContext{Trace: uint64(in.ReadVLong()), Span: uint64(in.ReadVLong())}
			}
			nTargets := int(in.ReadVInt())
			targets := make([]string, 0, nTargets)
			for i := 0; i < nTargets; i++ {
				targets = append(targets, in.ReadText())
			}
			release()
			if in.Err() != nil {
				return
			}
			if pending != nil {
				if dn.collect(e, pending) != nil {
					return
				}
				pending = nil
			}
			fut, err := dn.receiveBlock(e, conn, blockID, targets, sc)
			if err != nil {
				return
			}
			pending = fut
		case opReadBlock:
			blockID := in.ReadInt64()
			release()
			if in.Err() != nil {
				return
			}
			if err := dn.sendBlock(e, conn, blockID); err != nil {
				return
			}
		default:
			release()
			return
		}
	}
}

// packet header layout: [seq int32][dataLen int32][last bool], big-endian
// as a DataOutput writes it.
func packetHeader(seq int32, dataLen int32, last bool) []byte {
	b := make([]byte, 9)
	binary.BigEndian.PutUint32(b, uint32(seq))
	binary.BigEndian.PutUint32(b[4:], uint32(dataLen))
	if last {
		b[8] = 1
	}
	return b
}

// receiveBlock implements the downstream side of the write pipeline:
// establish the remaining pipeline, ack setup upstream, then for each packet
// forward downstream first (cut-through) and write locally on an overlapped
// disk-writer thread; ack upstream once the local disk and the downstream
// replica both finished; finally report blockReceived to the NameNode —
// asynchronously, returning the future for the caller to collect once it has
// other work in hand.
func (dn *DataNode) receiveBlock(e exec.Env, upstream transport.Conn, blockID int64, targets []string, sc tracing.SpanContext) (*blockNotify, error) {
	// Each pipeline hop is one span, parented on the upstream hop's span (the
	// client's block span for the first DataNode), so a write trace shows the
	// full replication chain hop by hop.
	var hop *tracing.Span
	if sc.Trace != 0 {
		hop = dn.h.cfg.Trace.Start("dn.writeBlock", "server", sc, e.Now())
		hop.SetAttr("node", strconv.Itoa(dn.node))
		hop.SetAttr("block", strconv.FormatInt(blockID, 10))
		defer func() { hop.EndAt(e.Now()) }()
	}
	var downstream transport.Conn
	if len(targets) > 0 {
		var err error
		downstream, err = dn.h.dataNet(dn.node).Dial(e, targets[0])
		if err != nil {
			return nil, err
		}
		defer downstream.Close()
		if err := downstream.Send(e, writeBlockHeader(blockID, targets[1:], hop.Context())); err != nil {
			return nil, err
		}
		if _, rel, err := downstream.Recv(e); err != nil { // setup ack
			return nil, err
		} else {
			rel()
		}
	}
	if err := upstream.Send(e, []byte{1}); err != nil { // setup ack
		return nil, err
	}

	// Writes land in the page cache; a background flusher drains them to
	// disk. The dirty-bytes budget provides kernel-writeback backpressure
	// when sustained ingest outruns the spindle.
	diskQ := e.NewQueue(0)
	proc := cluster.ProcOf(e)
	node := dn.h.c.Node(dn.node)
	e.Spawn("dn-flusher", func(de exec.Env) {
		dproc := cluster.ProcOf(de)
		for {
			v, ok := diskQ.Get(de)
			if !ok {
				return
			}
			n := v.(int64)
			// Writeback coalescing: drain everything already queued and
			// write one large extent (the kernel elevator's merging), so
			// concurrent block streams do not pay a head seek per packet.
			for {
				v2, ok2 := diskQ.TryGet()
				if !ok2 {
					break
				}
				n += v2.(int64)
			}
			node.Disk.WriteStream(dproc, blockID, n)
			dn.dirty.Release(n)
		}
	})
	rdma := dn.h.cfg.DataRDMA

	var length int64
	for {
		data, release, err := upstream.Recv(e)
		if err != nil {
			diskQ.Close()
			return nil, err
		}
		in := wire.NewDataInput(data)
		in.ReadInt32() // seq
		dataLen := in.ReadInt32()
		last := in.ReadBool()
		release()
		if in.Err() != nil {
			diskQ.Close()
			return nil, in.Err()
		}
		dn.PacketsIn++
		dn.h.m.recv.add(int64(dataLen))
		// Checksum verification, stream decode, write() copy.
		e.Work(packetCPU(rdma, int(dataLen)))
		if downstream != nil {
			hdr := packetHeader(0, dataLen, last)
			if err := transport.SendSized(e, downstream, hdr, len(hdr)+int(dataLen)); err != nil {
				diskQ.Close()
				return nil, err
			}
			dn.h.m.forward.add(int64(dataLen))
		}
		length += int64(dataLen)
		if dataLen > 0 {
			dn.dirty.Acquire(proc, int64(dataLen))
			diskQ.Put(e, int64(dataLen))
		}
		if last {
			break
		}
	}
	diskQ.Close()
	if downstream != nil {
		if _, rel, err := downstream.Recv(e); err != nil { // final ack
			return nil, err
		} else {
			rel()
		}
	}
	dn.blocks[blockID] = length
	if err := upstream.Send(e, []byte{2}); err != nil { // final ack
		return nil, err
	}
	param := &BlockReceivedParam{Reg: dn.reg(), BlockID: blockID, Length: length, DelHint: ""}
	fut := dn.rpc.CallAsync(e, dn.h.nnAddr, DatanodeProtocol, "blockReceived", param, nil)
	return &blockNotify{fut: fut, param: param}, nil
}

// sendBlock streams a replica back to a reader.
func (dn *DataNode) sendBlock(e exec.Env, conn transport.Conn, blockID int64) error {
	length, ok := dn.blocks[blockID]
	if !ok {
		return conn.Send(e, []byte{0}) // NAK
	}
	if err := conn.Send(e, []byte{1}); err != nil {
		return err
	}
	proc := cluster.ProcOf(e)
	disk := dn.h.c.Node(dn.node).Disk
	packet := int64(dn.h.cfg.PacketSize)
	rdma := dn.h.cfg.DataRDMA
	var seq int32
	for off := int64(0); off < length; off += packet {
		n := packet
		if off+n > length {
			n = length - off
		}
		disk.ReadStream(proc, blockID, n)
		e.Work(packetCPU(rdma, int(n)))
		last := off+n >= length
		hdr := packetHeader(seq, int32(n), last)
		if err := transport.SendSized(e, conn, hdr, len(hdr)+int(n)); err != nil {
			return err
		}
		dn.h.m.read.add(n)
		seq++
	}
	return nil
}

// writeBlockHeader layout: [op u8][block id int64][target count vint]
// [targets...]. A traced transfer negates the block ID (-id-1; IDs are
// non-negative) and inserts [trace vlong][span vlong] after it, carrying the
// sender's span context down the pipeline — untraced headers stay
// byte-identical to the pre-tracing format.
func writeBlockHeader(blockID int64, targets []string, sc tracing.SpanContext) []byte {
	d := wire.NewDataOutputBufferSize(64)
	out := wire.NewDataOutput(d)
	out.WriteU8(opWriteBlock)
	if sc.Trace == 0 {
		out.WriteInt64(blockID)
	} else {
		out.WriteInt64(-blockID - 1)
		out.WriteVLong(int64(sc.Trace))
		out.WriteVLong(int64(sc.Span))
	}
	out.WriteVInt(int32(len(targets)))
	for _, t := range targets {
		out.WriteText(t)
	}
	return append([]byte(nil), d.Data()...)
}

func readBlockHeader(blockID int64) []byte {
	d := wire.NewDataOutputBufferSize(16)
	out := wire.NewDataOutput(d)
	out.WriteU8(opReadBlock)
	out.WriteInt64(blockID)
	return append([]byte(nil), d.Data()...)
}
