package core

// Run-state introspection used by the fault-injection invariant checker
// (internal/faultsim) and by tests: after a simulated run reaches
// quiescence, a healthy client has no pending calls and every future it
// issued has resolved.

// PendingCallCount counts in-flight entries across every connection's
// pending-call table. A non-zero value at quiescence means a response was
// lost without the call being failed — a leaked call.
func PendingCallCount(c *Client) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, conn := range c.conns {
		conn.mu.Lock()
		n += len(conn.calls)
		conn.mu.Unlock()
	}
	return n
}

// OpenConnectionCount counts cached, unclosed connections.
func OpenConnectionCount(c *Client) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, conn := range c.conns {
		if !conn.closed.Load() {
			n++
		}
	}
	return n
}
