package transport

import (
	"errors"
	"testing"

	"rpcoib/internal/bufpool"
	"rpcoib/internal/exec"
)

// sendOnlyConn is a Conn without SendPooled, as a decorator that wraps only
// Conn is: it records what Send was given and how many times the message had
// been released by then.
type sendOnlyConn struct {
	Conn // nil: only Send is used
	msg  *countingMsg
	sent [][]byte
	seen int32 // releases before Send
	err  error
}

func (c *sendOnlyConn) Send(_ exec.Env, data []byte) error {
	c.sent = append(c.sent, data)
	c.seen = c.msg.n.Load()
	return c.err
}

// TestSendPooledFallbackSendsThenReleases: on a conn that is not a
// PooledSender, SendPooled sends exactly the message's n bytes of its buffer,
// with no copy, once, and releases the message exactly once after Send has
// returned, whether Send succeeds or fails.
func TestSendPooledFallbackSendsThenReleases(t *testing.T) {
	for _, sendErr := range []error{nil, errors.New("send failed")} {
		m := &countingMsg{buf: &bufpool.Buffer{Data: testBody(4, 256)}, size: 100}
		c := &sendOnlyConn{msg: m, err: sendErr}
		if _, ok := Conn(c).(PooledSender); ok {
			t.Fatal("the fake conn must not be a PooledSender")
		}
		if err := SendPooled(nil, c, m, false); err != sendErr {
			t.Fatalf("send error %v: SendPooled returned %v", sendErr, err)
		}
		if len(c.sent) != 1 {
			t.Fatalf("send error %v: %d sends, want 1", sendErr, len(c.sent))
		}
		if got := c.sent[0]; len(got) != m.size || &got[0] != &m.buf.Data[0] {
			t.Fatalf("send error %v: sent %d bytes at %p, want the buffer's first %d at %p",
				sendErr, len(got), &got[0], m.size, &m.buf.Data[0])
		}
		if c.seen != 0 {
			t.Fatalf("send error %v: the message was released before Send returned", sendErr)
		}
		if m.n.Load() != 1 {
			t.Fatalf("send error %v: released %d times, want 1", sendErr, m.n.Load())
		}
	}
}
