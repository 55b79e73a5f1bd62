package hdfs

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"rpcoib/internal/core"
	"rpcoib/internal/exec"
	"rpcoib/internal/tracing"
	"rpcoib/internal/transport"
	"rpcoib/internal/wire"
)

// DFSClient is the user-facing HDFS handle: metadata operations over the
// ClientProtocol and streaming reads/writes over the data path. One client
// is bound to a node (for replica locality, as real DFSClients are).
type DFSClient struct {
	h    *HDFS
	node int
	rpc  *core.Client
	name string
}

func (c *DFSClient) call(e exec.Env, method string, param, reply wire.Writable) error {
	return c.rpc.Call(e, c.h.nnAddr, ClientProtocol, method, param, reply)
}

// GetFileInfo returns the status of path (Exists=false when absent).
func (c *DFSClient) GetFileInfo(e exec.Env, path string) (FileStatus, error) {
	var st FileStatus
	err := c.call(e, "getFileInfo", &PathParam{Path: path}, &st)
	return st, err
}

// Mkdirs creates a directory entry.
func (c *DFSClient) Mkdirs(e exec.Env, path string) error {
	return c.call(e, "mkdirs", &PathParam{Path: path}, &wire.BooleanWritable{})
}

// Rename moves src to dst.
func (c *DFSClient) Rename(e exec.Env, src, dst string) error {
	return c.call(e, "rename", &RenameParam{Src: src, Dst: dst}, &wire.BooleanWritable{})
}

// Delete removes a path.
func (c *DFSClient) Delete(e exec.Env, path string) error {
	return c.call(e, "delete", &PathParam{Path: path}, &wire.BooleanWritable{})
}

// GetListing lists the children of a directory.
func (c *DFSClient) GetListing(e exec.Env, path string) ([]FileStatus, error) {
	var l Listing
	if err := c.call(e, "getListing", &PathParam{Path: path}, &l); err != nil {
		return nil, err
	}
	return l.Entries, nil
}

// RenewLease refreshes the client lease.
func (c *DFSClient) RenewLease(e exec.Env) error {
	return c.call(e, "renewLease", &wire.Text{Value: c.name}, &wire.BooleanWritable{})
}

// CreateFile writes a file of the given logical size through replicated
// block pipelines and closes it. Replication 0 uses the cluster default.
func (c *DFSClient) CreateFile(e exec.Env, path string, size int64, replication int) error {
	// The op span roots the whole write: every NameNode call (create,
	// addBlock, complete retries) issued under the wrapped Env becomes its
	// child, so a trace shows the write's full control-plane fan-out.
	e, opDone := tracing.StartOp(c.h.cfg.Trace, e, "op.hdfs.write",
		"path", path, "bytes", strconv.FormatInt(size, 10))
	defer opDone()
	if err := c.call(e, "create", &CreateParam{
		Path: path, ClientName: c.name,
		Replication: int32(replication), BlockSize: c.h.cfg.BlockSize,
	}, &wire.BooleanWritable{}); err != nil {
		return err
	}
	remaining := size
	for remaining > 0 || size == 0 {
		blockLen := c.h.cfg.BlockSize
		if blockLen > remaining {
			blockLen = remaining
		}
		if size > 0 {
			// A failed pipeline abandons the block, reports the attempted
			// targets as suspect, and asks the NameNode for a fresh one
			// (DataStreamer's recovery with excludedNodes).
			var lastErr error
			var excluded []string
			ok := false
			for attempt := 0; attempt < 5; attempt++ {
				var lb LocatedBlock
				if err := c.call(e, "addBlock",
					&AddBlockParam{Path: path, ClientName: c.name, Excluded: excluded}, &lb); err != nil {
					return err
				}
				if lastErr = c.writeBlock(e, lb, blockLen); lastErr == nil {
					ok = true
					break
				}
				if err := c.call(e, "abandonBlock",
					&AbandonBlockParam{Path: path, ClientName: c.name, BlockID: lb.BlockID},
					&wire.BooleanWritable{}); err != nil {
					return err
				}
				excluded = append(excluded, lb.Targets...)
				e.Sleep(time.Second)
			}
			if !ok {
				return fmt.Errorf("write %s: pipeline failed: %w", path, lastErr)
			}
			remaining -= blockLen
		}
		if remaining <= 0 {
			break
		}
	}
	// completeFile polls until the NameNode has seen every block reported.
	// The schedule is DFSClient's 400 ms retry loop expressed as a
	// CallPolicy.
	if err := completePolicy.Do(e, func(attempt int) error {
		var done wire.BooleanWritable
		if err := c.call(e, "complete", &CompleteParam{Path: path, ClientName: c.name}, &done); err != nil {
			return err
		}
		if !done.Value {
			return errIncomplete
		}
		return nil
	}); err != nil {
		if errors.Is(err, errIncomplete) {
			return fmt.Errorf("complete: %s never reached minimal replication", path)
		}
		return err
	}
	return nil
}

// errIncomplete is the semantic not-yet signal of the completeFile poll.
var errIncomplete = errors.New("hdfs: file blocks not yet minimally replicated")

// completePolicy drives the completeFile poll: up to 51 attempts at a
// constant 400 ms (MaxBackoff pins the historical DFSClient cadence — an
// exponential schedule would make fast-RPC writers, which reach `complete`
// before the DataNodes' blockReceived lands, wait progressively longer than
// the slow-RPC ones). Only the not-yet signal is retried; RPC failures
// surface immediately.
var completePolicy = core.CallPolicy{
	MaxAttempts: 51,
	Backoff:     400 * time.Millisecond,
	MaxBackoff:  400 * time.Millisecond,
	RetryOn:     func(err error) bool { return errors.Is(err, errIncomplete) },
}

// writeBlock streams one block into the pipeline headed by lb.Targets[0].
func (c *DFSClient) writeBlock(e exec.Env, lb LocatedBlock, length int64) error {
	if len(lb.Targets) == 0 {
		return fmt.Errorf("writeBlock: block %d has no targets", lb.BlockID)
	}
	sp := c.h.cfg.Trace.Start("hdfs.writeBlock", "client", tracing.ContextOf(e), e.Now())
	sp.SetAttr("block", strconv.FormatInt(lb.BlockID, 10))
	sp.SetAttr("pipeline", strconv.Itoa(len(lb.Targets)))
	defer func() { sp.EndAt(e.Now()) }()
	conn, err := c.h.dataNet(c.node).Dial(e, lb.Targets[0])
	if err != nil {
		return err
	}
	defer conn.Close()
	if err := conn.Send(e, writeBlockHeader(lb.BlockID, lb.Targets[1:], sp.Context())); err != nil {
		return err
	}
	if _, rel, err := conn.Recv(e); err != nil { // pipeline setup ack
		return err
	} else {
		rel()
	}
	packet := int64(c.h.cfg.PacketSize)
	rdma := c.h.cfg.DataRDMA
	var seq int32
	hdr := make([]byte, packetHeaderLen)
	for off := int64(0); off < length; off += packet {
		n := packet
		if off+n > length {
			n = length - off
		}
		// Checksum computation and packet assembly.
		e.Work(packetCPU(rdma, int(n)))
		packetHeader(hdr, seq, int32(n), off+n >= length)
		if err := transport.SendSized(e, conn, hdr, len(hdr)+int(n)); err != nil {
			return err
		}
		c.h.m.clientWrite.add(n)
		seq++
	}
	if length == 0 {
		if err := conn.Send(e, packetHeader(hdr, 0, 0, true)); err != nil {
			return err
		}
	}
	if _, rel, err := conn.Recv(e); err != nil { // final ack
		return err
	} else {
		rel()
	}
	return nil
}

// Locate returns the block layout of path (a getBlockLocations call).
func (c *DFSClient) Locate(e exec.Env, path string) (*LocatedBlocks, error) {
	var lbs LocatedBlocks
	if err := c.call(e, "getBlockLocations",
		&GetBlockLocationsParam{Path: path, Length: 1 << 62}, &lbs); err != nil {
		return nil, err
	}
	return &lbs, nil
}

// ReadFile streams the whole file from the nearest replicas and returns the
// byte count.
func (c *DFSClient) ReadFile(e exec.Env, path string) (int64, error) {
	var lbs LocatedBlocks
	if err := c.call(e, "getBlockLocations",
		&GetBlockLocationsParam{Path: path, Length: 1 << 62}, &lbs); err != nil {
		return 0, err
	}
	var total int64
	for _, lb := range lbs.Blocks {
		n, err := c.readBlock(e, lb)
		if err != nil {
			return total, err
		}
		total += n
	}
	return total, nil
}

// readBlock fetches one block, preferring a local replica.
func (c *DFSClient) readBlock(e exec.Env, lb LocatedBlock) (int64, error) {
	if len(lb.Targets) == 0 {
		return 0, fmt.Errorf("readBlock: block %d has no locations", lb.BlockID)
	}
	// Prefer the local replica, then fail over across the others.
	order := make([]string, 0, len(lb.Targets))
	local := c.h.DataAddr(c.node)
	for _, t := range lb.Targets {
		if t == local {
			order = append(order, t)
		}
	}
	for _, t := range lb.Targets {
		if t != local {
			order = append(order, t)
		}
	}
	var conn transport.Conn
	var err error
	for _, t := range order {
		if conn, err = c.h.dataNet(c.node).Dial(e, t); err == nil {
			break
		}
	}
	if err != nil {
		return 0, fmt.Errorf("readBlock %d: all replicas unreachable: %w", lb.BlockID, err)
	}
	defer conn.Close()
	if err := conn.Send(e, readBlockHeader(lb.BlockID)); err != nil {
		return 0, err
	}
	status, rel, err := conn.Recv(e)
	if err != nil {
		return 0, err
	}
	ok := len(status) > 0 && status[0] == 1
	rel()
	if !ok {
		return 0, fmt.Errorf("readBlock: replica missing for block %d", lb.BlockID)
	}
	var total int64
	for {
		data, rel, err := conn.Recv(e)
		if err != nil {
			return total, err
		}
		in := wire.NewDataInput(data)
		in.ReadInt32() // seq
		n := in.ReadInt32()
		last := in.ReadBool()
		rel()
		if in.Err() != nil {
			return total, in.Err()
		}
		total += int64(n)
		if last {
			return total, nil
		}
	}
}
