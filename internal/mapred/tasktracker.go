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

// Child JVM startup: process launch plus class loading (Hadoop 0.20 spawns
// a fresh JVM per task).
const (
	jvmStartCPU  = 300 * time.Millisecond
	jvmStartWait = 700 * time.Millisecond
)

// taskChunk is the input granularity between progress reports.
const taskChunk = 32 << 20

// ttTask is one running attempt from the tracker's point of view.
type ttTask struct {
	spec          TaskSpec
	progress      float64
	phase         byte
	commitPending bool
}

// TaskTracker owns a node's task slots: it heartbeats to the JobTracker,
// launches child task processes, serves their umbilical RPCs over loopback,
// and serves map output segments to reducers (the shuffle server).
type TaskTracker struct {
	mr   *MapReduce
	name string
	node int

	mapSlotsFree int32
	redSlotsFree int32
	running      map[TaskID]*ttTask
	completed    []TaskID
	mapOutputs   map[TaskID][]int64   // partition sizes per reduce
	events       map[int32][]MapEvent // cached completion events per job
	jtClient     *core.Client
	kick         exec.Queue // out-of-band heartbeat trigger (task completion)

	// TasksLaunched counts child processes started.
	TasksLaunched int64
}

func newTaskTracker(mr *MapReduce, node int) *TaskTracker {
	return &TaskTracker{
		mr:           mr,
		name:         fmt.Sprintf("tracker_node%d:localhost/127.0.0.1:%d", node, umbPort),
		node:         node,
		mapSlotsFree: int32(mr.cfg.MapSlots),
		redSlotsFree: int32(mr.cfg.ReduceSlots),
		running:      map[TaskID]*ttTask{},
		mapOutputs:   map[TaskID][]int64{},
		events:       map[int32][]MapEvent{},
	}
}

// run starts the umbilical server, the shuffle server, and the heartbeat
// loop.
func (tt *TaskTracker) run(e exec.Env) {
	srv := core.NewServer(tt.mr.rpcNet(tt.node), core.Options{
		Mode: tt.mr.cfg.RPCMode, Costs: tt.mr.c.Costs,
		Metrics: tt.mr.cfg.Metrics, Trace: tt.mr.cfg.Trace, Handlers: 4,
	})
	tt.registerUmbilical(srv)
	if err := srv.Start(e, umbPort); err != nil {
		panic(fmt.Sprintf("tasktracker %s: %v", tt.name, err))
	}
	shuffleLn, err := tt.mr.shuffleNet(tt.node).Listen(e, shufflePort)
	if err != nil {
		panic(fmt.Sprintf("tasktracker %s shuffle: %v", tt.name, err))
	}
	e.Spawn("tt-shuffle-server", func(se exec.Env) { tt.serveShuffle(se, shuffleLn) })

	tt.jtClient = tt.mr.newRPCClient(tt.node)
	tt.kick = e.NewQueue(1)
	tt.mr.registerKick(tt.kick)
	for {
		hb := &TTHeartbeat{
			TTName:       tt.name,
			Host:         fmt.Sprintf("node%d", tt.node),
			MapSlotsFree: tt.mapSlotsFree,
			RedSlotsFree: tt.redSlotsFree,
			Completed:    tt.completed,
		}
		// Deterministic status order (map iteration order is randomized).
		running := make([]*ttTask, 0, len(tt.running))
		for _, t := range tt.running {
			running = append(running, t)
		}
		sort.Slice(running, func(i, j int) bool {
			a, b := running[i].spec.Task, running[j].spec.Task
			if a.IsMap != b.IsMap {
				return a.IsMap
			}
			return a.Index < b.Index
		})
		for _, t := range running {
			hb.Running = append(hb.Running, TaskStatus{
				Task: t.spec.Task, Progress: t.progress, Phase: t.phase,
				Counters: fullCounters(int64(t.spec.Task.Index)),
			})
		}
		tt.completed = nil
		// The heartbeat goes out as a future: the send completes and the
		// tracker finishes its local bookkeeping while the JobTracker round
		// trip is in flight; the response is collected (and its actions
		// applied) as soon as it lands.
		var resp HeartbeatResponse
		fut := tt.jtClient.CallAsync(e, tt.mr.jtAddr, InterTrackerProtocol, "heartbeat", hb, &resp)
		if err := fut.Wait(e); err == nil {
			if len(resp.Events) > 0 {
				tt.events[resp.EventJob] = append(tt.events[resp.EventJob], resp.Events...)
			}
			for _, action := range resp.Actions {
				tt.launch(e, action)
			}
		}
		// Wait one interval — or less, when a task completion triggers an
		// out-of-band heartbeat (mapreduce.tasktracker.outofband.heartbeat),
		// which keeps task turnaround on the RPC timescale instead of the
		// heartbeat timescale.
		_, ok, timedOut := tt.kick.GetTimeout(e, tt.mr.cfg.HeartbeatInterval)
		if !timedOut && !ok {
			srv.Stop()
			shuffleLn.Close()
			return
		}
	}
}

// launch starts a child process for a task attempt.
func (tt *TaskTracker) launch(e exec.Env, spec TaskSpec) {
	if spec.Task.IsMap {
		tt.mapSlotsFree--
	} else {
		tt.redSlotsFree--
	}
	tt.running[spec.Task] = &ttTask{spec: spec}
	tt.TasksLaunched++
	child := &childTask{tt: tt, spec: spec}
	name := fmt.Sprintf("attempt_j%d_%s_%06d", spec.Task.Job, mapOrRed(spec.Task.IsMap), spec.Task.Index)
	e.Spawn(name, child.run)
}

func mapOrRed(isMap bool) string {
	if isMap {
		return "m"
	}
	return "r"
}

// taskDone transitions an attempt to completed.
func (tt *TaskTracker) taskDone(id TaskID) {
	if _, ok := tt.running[id]; !ok {
		return
	}
	delete(tt.running, id)
	tt.completed = append(tt.completed, id)
	if id.IsMap {
		tt.mapSlotsFree++
	} else {
		tt.redSlotsFree++
	}
	if tt.kick != nil {
		tt.kick.TryPut(struct{}{}) // out-of-band heartbeat
	}
}

// registerMapOutput records a completed map's partition sizes for the
// shuffle server (the real TT discovers spill files on local disk).
func (tt *TaskTracker) registerMapOutput(id TaskID, partitions []int64) {
	tt.mapOutputs[id] = partitions
}

// ---- umbilical protocol ----

func (tt *TaskTracker) registerUmbilical(srv *core.Server) {
	srv.Register(UmbilicalProtocol, "getTask",
		func() wire.Writable { return &TaskID{} },
		func(e exec.Env, p wire.Writable) (wire.Writable, error) {
			id := *p.(*TaskID)
			if t, ok := tt.running[id]; ok {
				return &t.spec, nil
			}
			return &TaskSpec{Valid: false}, nil
		})
	srv.Register(UmbilicalProtocol, "ping",
		func() wire.Writable { return &TaskID{} },
		func(e exec.Env, p wire.Writable) (wire.Writable, error) {
			_, ok := tt.running[*p.(*TaskID)]
			return &wire.BooleanWritable{Value: ok}, nil
		})
	srv.Register(UmbilicalProtocol, "statusUpdate",
		func() wire.Writable { return &TaskStatus{} },
		func(e exec.Env, p wire.Writable) (wire.Writable, error) {
			st := p.(*TaskStatus)
			if t, ok := tt.running[st.Task]; ok {
				t.progress = st.Progress
				t.phase = st.Phase
			}
			return &wire.BooleanWritable{Value: true}, nil
		})
	srv.Register(UmbilicalProtocol, "commitPending",
		func() wire.Writable { return &TaskStatus{} },
		func(e exec.Env, p wire.Writable) (wire.Writable, error) {
			st := p.(*TaskStatus)
			if t, ok := tt.running[st.Task]; ok {
				t.commitPending = true
			}
			return &wire.NullWritable{}, nil
		})
	srv.Register(UmbilicalProtocol, "canCommit",
		func() wire.Writable { return &TaskID{} },
		func(e exec.Env, p wire.Writable) (wire.Writable, error) {
			// Single attempt per task in this model: always approve.
			return &wire.BooleanWritable{Value: true}, nil
		})
	srv.Register(UmbilicalProtocol, "done",
		func() wire.Writable { return &TaskID{} },
		func(e exec.Env, p wire.Writable) (wire.Writable, error) {
			id := *p.(*TaskID)
			tt.taskDone(id)
			return &wire.NullWritable{}, nil
		})
	srv.Register(UmbilicalProtocol, "getMapCompletionEvents",
		func() wire.Writable { return &MapEventsParam{} },
		func(e exec.Env, p wire.Writable) (wire.Writable, error) {
			req := p.(*MapEventsParam)
			events := tt.events[req.Job]
			if int(req.FromIndex) > len(events) {
				return &MapEventsReply{}, nil
			}
			return &MapEventsReply{Events: events[req.FromIndex:]}, nil
		})
}

// ---- shuffle server ----

// Shuffle request frame: [job int32][reduce int32][count VInt][mapIndex...]
// Response: per map [mapIndex int32][size int64] (SendSized to size), then
// a terminator frame [-1].
func (tt *TaskTracker) serveShuffle(e exec.Env, ln transport.Listener) {
	for {
		conn, err := ln.Accept(e)
		if err != nil {
			return
		}
		e.Spawn("tt-shuffle-conn", func(se exec.Env) { tt.handleShuffleConn(se, conn) })
	}
}

func (tt *TaskTracker) handleShuffleConn(e exec.Env, conn transport.Conn) {
	defer conn.Close()
	proc := cluster.ProcOf(e)
	disk := tt.mr.c.Node(tt.node).Disk
	for {
		data, release, err := conn.Recv(e)
		if err != nil {
			return
		}
		in := wire.NewDataInput(data)
		job := in.ReadInt32()
		reduce := in.ReadInt32()
		count := int(in.ReadVInt())
		idxs := make([]int32, 0, count)
		for i := 0; i < count && in.Err() == nil; i++ {
			idxs = append(idxs, in.ReadInt32())
		}
		release()
		if in.Err() != nil {
			return
		}
		for _, mi := range idxs {
			id := TaskID{Job: job, IsMap: true, Index: mi}
			var size int64
			if parts, ok := tt.mapOutputs[id]; ok && int(reduce) < len(parts) {
				size = parts[reduce]
			}
			disk.ReadStream(proc, int64(job)<<32|int64(mi)+1, size)
			hdr := shuffleSegmentHeader(mi, size)
			if err := transport.SendSized(e, conn, hdr, len(hdr)+int(size)); err != nil {
				return
			}
		}
		if err := conn.Send(e, shuffleSegmentHeader(-1, 0)); err != nil {
			return
		}
	}
}

func shuffleSegmentHeader(mapIndex int32, size int64) []byte {
	d := wire.NewDataOutputBufferSize(16)
	out := wire.NewDataOutput(d)
	out.WriteInt32(mapIndex)
	out.WriteInt64(size)
	return append([]byte(nil), d.Data()...)
}

func shuffleRequest(job, reduce int32, idxs []int32) []byte {
	d := wire.NewDataOutputBufferSize(64)
	out := wire.NewDataOutput(d)
	out.WriteInt32(job)
	out.WriteInt32(reduce)
	out.WriteVInt(int32(len(idxs)))
	for _, i := range idxs {
		out.WriteInt32(i)
	}
	return append([]byte(nil), d.Data()...)
}
