package cluster

// Topology describes the physical layout of the cluster: how nodes are
// grouped into racks and how many independent IB rails each node's HCA(s)
// expose. The paper's testbeds motivate the shapes: Cluster A is a classic
// single-rail QDR fabric, while multi-rail layouts model hosts with dual-port
// HCAs (or two HCAs) cabled to independent switches — the configuration
// RDMAvisor-style rail virtualization targets. Every rail is a full
// netsim.Fabric with its own NICs, link state, and verbs network, so a rail
// can be lost, flapped, or degraded independently of its siblings.
type Topology struct {
	// Racks is the rack count; node n lives in rack n % Racks. Rack
	// membership drives rail affinity: traffic between same-rack nodes is
	// pinned to the rack's home rail, keeping rack-local flows from
	// contending with cross-rack ones. <= 0 means 1.
	Racks int
	// IBRails is the number of independent native-IB rails per node. <= 0
	// means 1 — the historical single-fabric behavior, byte-identical with
	// pre-topology clusters.
	IBRails int
}

func (t Topology) withDefaults() Topology {
	if t.Racks <= 0 {
		t.Racks = 1
	}
	if t.IBRails <= 0 {
		t.IBRails = 1
	}
	return t
}

// RackOf returns the rack housing node.
func (t Topology) RackOf(node int) int {
	t = t.withDefaults()
	if node < 0 {
		return 0
	}
	return node % t.Racks
}

// PreferredRail returns the affinity rail for traffic from src to dst:
// same-rack flows ride the rack's home rail; cross-rack flows are spread
// deterministically by the rack pair. The rail dialer starts here and load-
// balances away only when the preferred rail is measurably busier or down.
func (t Topology) PreferredRail(src, dst int) int {
	t = t.withDefaults()
	rs, rd := t.RackOf(src), t.RackOf(dst)
	if rs == rd {
		return rs % t.IBRails
	}
	return (rs + rd) % t.IBRails
}
