package main

import (
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"

	"rpcoib/internal/wire"
)

// msg is the one Writable every workload sends, in both directions. seq is
// the call's sequence number (the first 8 bytes of the value on the wire and
// the identifier spans share); want is the reply body size the caller asks
// for; sum is the CRC-32C of body, so a reply can be checked without knowing
// what the server was supposed to send.
type msg struct {
	seq  uint64
	want uint32
	sum  uint32
	body []byte
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

func (m *msg) Write(out *wire.DataOutput) {
	out.WriteInt64(int64(m.seq))
	out.WriteInt32(int32(m.want))
	out.WriteInt32(int32(m.sum))
	out.WriteInt32(int32(len(m.body)))
	out.WriteBytes(m.body)
}

// ReadFields copies the body out of the receive buffer, as Java's readFully
// does (and wire.BytesWritable here): the buffer may be reposted. A reused
// msg keeps its capacity; a fresh one (the server's per-call param) allocates.
func (m *msg) ReadFields(in *wire.DataInput) {
	m.seq = uint64(in.ReadInt64())
	m.want = uint32(in.ReadInt32())
	m.sum = uint32(in.ReadInt32())
	n := int(in.ReadInt32())
	m.body = append(m.body[:0], in.ReadBytes(n)...)
}

// checkReply is the per-call correctness check: the reply carries the call's
// sequence number, has the length asked for, and its bytes match its own
// checksum; an echo must also match what was sent.
func checkReply(sent, got *msg, echo bool) error {
	switch {
	case got.seq != sent.seq:
		return fmt.Errorf("reply seq %d for call %d", got.seq, sent.seq)
	case len(got.body) != int(sent.want):
		return fmt.Errorf("call %d: reply body %d bytes, want %d", sent.seq, len(got.body), sent.want)
	case checksum(got.body) != got.sum:
		return fmt.Errorf("call %d: reply body fails its checksum", sent.seq)
	case echo && got.sum != sent.sum:
		return fmt.Errorf("call %d: echo differs from what was sent", sent.seq)
	}
	return nil
}

// step is one scripted call: which method, and the body sizes each way.
type step struct {
	method string
	req    int
	reply  int
	echo   bool
}

const protocol = "bench.Proto"

// smallSizes are Fig 5(a)'s range; each gets its own echo method so each has
// its own <protocol,method> pool history.
var smallSizes = []int{1, 64, 512, 4096}

const (
	largeMin = 64 << 10
	largeMax = 1 << 20
	// cycleLen is how many calls make one shuffled cycle of a script.
	cycleLen = 64
)

func echoMethod(size int) string { return fmt.Sprintf("echo%d", size) }

// cycleFor returns the fixed multiset of calls one cycle of a workload makes.
// The seed only permutes it: every run then sends the same sizes the same
// number of times, so bytes per call and the mean call cost do not depend on
// the draw, while the order (which drives pool-history mispredictions) does.
func cycleFor(workload string) []step {
	steps := make([]step, 0, cycleLen)
	switch workload {
	case wRealSmall, wRealObserved:
		for i := 0; i < cycleLen; i++ {
			s := smallSizes[i%len(smallSizes)]
			steps = append(steps, step{method: echoMethod(s), req: s, reply: s, echo: true})
		}
	case wRealLargePut, wRealLargeGet:
		for i := 0; i < cycleLen; i++ {
			// Log-uniform ladder from largeMin to largeMax inclusive.
			s := int(math.Round(largeMin * math.Pow(float64(largeMax)/largeMin, float64(i)/(cycleLen-1))))
			if workload == wRealLargePut {
				steps = append(steps, step{method: "put", req: s})
			} else {
				steps = append(steps, step{method: "get", reply: s})
			}
		}
	case wSimFig5:
		for i := 0; i < cycleLen; i++ {
			steps = append(steps, step{method: echoMethod(fig5Body), req: fig5Body, reply: fig5Body, echo: true})
		}
	default:
		panic("no call script for workload " + workload)
	}
	return steps
}

// script deals a caller's calls: shuffled cycles of the workload's multiset,
// bodies cut from a shared block of seeded random bytes.
type script struct {
	rng   *rand.Rand
	cycle []step
	next  int
	block []byte
}

// blockBytes sizes the random block bodies are cut from: twice the largest
// body, so offsets vary.
const blockBytes = 2 * largeMax

func newBlock(seed int64) []byte {
	b := make([]byte, blockBytes)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func newScript(workload string, seed int64, caller int, block []byte) *script {
	return &script{
		rng:   rand.New(rand.NewSource(seed*1_000_003 + int64(caller))),
		cycle: cycleFor(workload),
		block: block,
	}
}

// fill writes the next scripted call into m and returns its step.
func (s *script) fill(m *msg, seq uint64) step {
	if s.next == 0 {
		s.rng.Shuffle(len(s.cycle), func(i, j int) { s.cycle[i], s.cycle[j] = s.cycle[j], s.cycle[i] })
	}
	st := s.cycle[s.next]
	s.next = (s.next + 1) % len(s.cycle)
	off := s.rng.Intn(len(s.block) - st.req)
	m.seq = seq
	m.want = uint32(st.reply)
	m.body = s.block[off : off+st.req]
	m.sum = checksum(m.body)
	return st
}
