package mapred

import (
	"fmt"
	"sort"
	"time"

	"rpcoib/internal/cluster"
	"rpcoib/internal/core"
	"rpcoib/internal/exec"
	"rpcoib/internal/transport"
	"rpcoib/internal/wire"
)

// childTask is one task attempt running in its own (simulated) JVM on the
// tracker's node, talking to the tracker over loopback umbilical RPC.
type childTask struct {
	tt   *TaskTracker
	spec TaskSpec
	umb  *core.Client
	conf *SubmitJobParam

	// statusFut is the in-flight asynchronous statusUpdate, if any: progress
	// reports overlap the next chunk of task work instead of stalling it.
	statusFut *core.Future
}

func (c *childTask) umbAddr() string { return c.tt.mr.UmbilicalAddr(c.tt.node) }

func (c *childTask) call(e exec.Env, method string, param, reply wire.Writable) error {
	return c.umb.Call(e, c.umbAddr(), UmbilicalProtocol, method, param, reply)
}

// reportStatus sends a progress report asynchronously, first collecting the
// previous one so at most one report is in flight. Report errors are
// ignored, as they were under the synchronous path.
func (c *childTask) reportStatus(e exec.Env, st *TaskStatus) {
	c.drainStatus(e)
	c.statusFut = c.umb.CallAsync(e, c.umbAddr(), UmbilicalProtocol,
		"statusUpdate", st, &wire.BooleanWritable{})
}

// drainStatus collects any in-flight progress report; tasks call it before
// lifecycle RPCs (commitPending, done) so those never race a stale update.
func (c *childTask) drainStatus(e exec.Env) {
	if c.statusFut != nil {
		c.statusFut.Wait(e)
		c.statusFut = nil
	}
}

func (c *childTask) status(progress float64, phase byte) *TaskStatus {
	return &TaskStatus{Task: c.spec.Task, Progress: progress, Phase: phase,
		Counters: fullCounters(int64(c.spec.Task.Index))}
}

func (c *childTask) run(e exec.Env) {
	// JVM launch.
	e.Work(jvmStartCPU)
	e.Sleep(jvmStartWait)
	c.umb = c.tt.mr.newRPCClient(c.tt.node)
	c.conf = c.tt.mr.jobConf(c.spec.Task.Job)

	var spec TaskSpec
	if err := c.call(e, "getTask", &c.spec.Task, &spec); err != nil || !spec.Valid {
		return
	}
	c.call(e, "ping", &c.spec.Task, &wire.BooleanWritable{})
	if c.spec.Task.IsMap {
		c.runMap(e)
	} else {
		c.runReduce(e)
	}
}

// runMap reads the input split (HDFS, local replica preferred), applies the
// map function cost, spills the partitioned output to local disk, and
// registers it with the tracker.
func (c *childTask) runMap(e exec.Env) {
	se := cluster.SimEnvOf(e)
	disk := c.tt.mr.c.Node(c.tt.node).Disk
	mr := c.tt.mr

	var inputBytes int64
	// Absolute paths are HDFS inputs; anything else is a synthetic split
	// (RandomWriter-style input formats generate data rather than read it).
	if len(c.spec.InputFile) > 0 && c.spec.InputFile[0] == '/' && mr.dfs != nil {
		dfs := mr.dfs.Client(c.tt.node)
		if st, err := dfs.GetFileInfo(e, c.spec.InputFile); err != nil || !st.Exists {
			c.fail(e, fmt.Sprintf("input missing: %s", c.spec.InputFile))
			return
		}
		n, err := dfs.ReadFile(e, c.spec.InputFile)
		if err != nil {
			c.fail(e, err.Error())
			return
		}
		inputBytes = n
	} else {
		inputBytes = c.spec.InputBytes
		disk.ReadStream(se.Proc(), streamID(c.spec.Task, 1), inputBytes)
	}

	mapCPUPerMB := time.Duration(c.conf.MapCPUPerMBNs)
	outRatio := float64(c.conf.MapOutputRatioPct) / 100
	outputBytes := int64(float64(inputBytes) * outRatio)

	processed := int64(0)
	for processed < inputBytes || inputBytes == 0 {
		chunk := int64(taskChunk)
		if processed+chunk > inputBytes {
			chunk = inputBytes - processed
		}
		e.Work(mapCPUPerMB * time.Duration(chunk>>20))
		processed += chunk
		if c.spec.NumReduces > 0 {
			// Spill the chunk's share of map output locally.
			disk.WriteStream(se.Proc(), streamID(c.spec.Task, 2), int64(float64(chunk)*outRatio))
		}
		progress := 1.0
		if inputBytes > 0 {
			progress = float64(processed) / float64(inputBytes)
		}
		c.reportStatus(e, c.status(progress, 0))
		if inputBytes == 0 {
			break
		}
	}

	if c.spec.NumReduces > 0 {
		parts := make([]int64, c.spec.NumReduces)
		per := outputBytes / int64(c.spec.NumReduces)
		for i := range parts {
			parts[i] = per
		}
		c.tt.registerMapOutput(c.spec.Task, parts)
	} else if c.conf.WritesHDFSOutput && mr.dfs != nil {
		// Map-only jobs (RandomWriter) write straight to HDFS with the
		// commit dance.
		if !c.writeHDFSOutput(e, outputBytes) {
			return
		}
	}
	c.drainStatus(e)
	c.call(e, "done", &c.spec.Task, nil)
}

// runReduce shuffles map segments as completion events arrive, merges, runs
// the reduce function, writes the HDFS output and commits.
func (c *childTask) runReduce(e exec.Env) {
	se := cluster.SimEnvOf(e)
	disk := c.tt.mr.c.Node(c.tt.node).Disk
	mr := c.tt.mr

	// Shuffle: poll for completion events, fetch per-tracker batches.
	conns := map[string]transport.Conn{}
	defer func() {
		// Each close puts a FIN on this node's NIC, so the order is visible
		// to the rest of the simulation: close in address order, not map
		// order, or the job's runtime varies from run to run.
		addrs := make([]string, 0, len(conns))
		for addr := range conns {
			addrs = append(addrs, addr)
		}
		sort.Strings(addrs)
		for _, addr := range addrs {
			conns[addr].Close()
		}
	}()
	var shuffled int64
	fetched := 0
	eventIndex := int32(0)
	for fetched < int(c.spec.NumMaps) {
		var reply MapEventsReply
		if err := c.call(e, "getMapCompletionEvents",
			&MapEventsParam{Job: c.spec.Task.Job, FromIndex: eventIndex, Reduce: c.spec.Task.Index},
			&reply); err != nil {
			c.fail(e, err.Error())
			return
		}
		eventIndex += int32(len(reply.Events))
		if len(reply.Events) == 0 {
			e.Sleep(time.Second)
			continue
		}
		byAddr := map[string][]int32{}
		addrs := make([]string, 0, 8)
		for _, ev := range reply.Events {
			if _, seen := byAddr[ev.ShuffleAddr]; !seen {
				addrs = append(addrs, ev.ShuffleAddr)
			}
			byAddr[ev.ShuffleAddr] = append(byAddr[ev.ShuffleAddr], ev.MapIndex)
		}
		sort.Strings(addrs) // deterministic fetch order
		for _, addr := range addrs {
			idxs := byAddr[addr]
			n, err := c.fetchSegments(e, conns, addr, idxs)
			if err != nil {
				c.fail(e, err.Error())
				return
			}
			disk.WriteStream(se.Proc(), streamID(c.spec.Task, 3), n)
			shuffled += n
			fetched += len(idxs)
		}
		c.reportStatus(e, c.status(float64(fetched)/float64(c.spec.NumMaps)/3, 1))
	}

	// Merge pass: read all segments, write one sorted run.
	disk.ReadStream(se.Proc(), streamID(c.spec.Task, 3), shuffled)
	disk.WriteStream(se.Proc(), streamID(c.spec.Task, 4), shuffled)
	c.reportStatus(e, c.status(0.66, 2))

	// Reduce function over the merged run.
	reduceCPUPerMB := time.Duration(c.conf.ReduceCPUPerMBNs)
	for processed := int64(0); processed < shuffled; {
		chunk := int64(taskChunk)
		if processed+chunk > shuffled {
			chunk = shuffled - processed
		}
		disk.ReadStream(se.Proc(), streamID(c.spec.Task, 4), chunk)
		e.Work(reduceCPUPerMB * time.Duration(chunk>>20))
		processed += chunk
		c.reportStatus(e, c.status(0.66+float64(processed)/float64(shuffled)/3, 3))
	}

	outBytes := int64(float64(shuffled) * float64(c.conf.ReduceOutRatioPct) / 100)
	if c.conf.WritesHDFSOutput && mr.dfs != nil {
		if !c.writeHDFSOutput(e, outBytes) {
			return
		}
	}
	c.drainStatus(e)
	c.call(e, "done", &c.spec.Task, nil)
}

// fetchSegments pulls the given map outputs for this reduce from one
// tracker's shuffle server, reusing a cached connection.
func (c *childTask) fetchSegments(e exec.Env, conns map[string]transport.Conn, addr string, idxs []int32) (int64, error) {
	conn, ok := conns[addr]
	if !ok {
		var err error
		conn, err = c.tt.mr.shuffleNet(c.tt.node).Dial(e, addr)
		if err != nil {
			return 0, err
		}
		conns[addr] = conn
	}
	if err := conn.Send(e, shuffleRequest(c.spec.Task.Job, c.spec.Task.Index, idxs)); err != nil {
		return 0, err
	}
	var total int64
	for {
		data, release, err := conn.Recv(e)
		if err != nil {
			return total, err
		}
		in := wire.NewDataInput(data)
		mi := in.ReadInt32()
		size := in.ReadInt64()
		release()
		if in.Err() != nil {
			return total, in.Err()
		}
		if mi < 0 {
			return total, nil
		}
		total += size
	}
}

// writeHDFSOutput performs the full output commit protocol: write to a
// temporary path, commitPending, canCommit, rename into place — generating
// the mkdirs/create/addBlock/complete/rename/delete NameNode traffic
// Table I profiles.
func (c *childTask) writeHDFSOutput(e exec.Env, bytes int64) bool {
	dfs := c.tt.mr.dfs.Client(c.tt.node)
	tmpDir := fmt.Sprintf("%s/_temporary", c.spec.OutputPath)
	part := fmt.Sprintf("part-%s-%05d", mapOrRed(c.spec.Task.IsMap), c.spec.Task.Index)
	tmp := fmt.Sprintf("%s/%s", tmpDir, part)
	final := fmt.Sprintf("%s/%s", c.spec.OutputPath, part)

	if err := dfs.Mkdirs(e, tmpDir); err != nil {
		c.fail(e, err.Error())
		return false
	}
	dfs.RenewLease(e)
	if err := dfs.CreateFile(e, tmp, bytes, int(c.conf.OutputReplication)); err != nil {
		c.fail(e, err.Error())
		return false
	}
	c.drainStatus(e)
	c.call(e, "commitPending", c.status(1.0, 3), nil)
	var can wire.BooleanWritable
	for {
		if err := c.call(e, "canCommit", &c.spec.Task, &can); err != nil {
			c.fail(e, err.Error())
			return false
		}
		if can.Value {
			break
		}
		e.Sleep(time.Second)
	}
	if err := dfs.Rename(e, tmp, final); err != nil {
		c.fail(e, err.Error())
		return false
	}
	return true
}

func (c *childTask) fail(e exec.Env, msg string) {
	st := c.status(0, 0)
	st.State = 2
	st.Diagnostic = msg
	c.call(e, "statusUpdate", st, &wire.BooleanWritable{})
	// Surface substrate bugs loudly: task failure is not part of any
	// modeled experiment.
	panic(fmt.Sprintf("task %v failed: %s", c.spec.Task, msg))
}

// streamID builds a disk stream identity for a task's sequential file.
func streamID(id TaskID, kind int64) int64 {
	base := int64(id.Job)<<40 | int64(id.Index)<<8 | kind
	if id.IsMap {
		base |= 1 << 39
	}
	return base
}
