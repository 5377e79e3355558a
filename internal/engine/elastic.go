package engine

import (
	"fmt"

	"saspar/internal/cluster"
	"saspar/internal/keyspace"
)

// This file is the engine side of elastic scale-out/in: nodes joining
// at runtime and nodes draining out gracefully. Both ride the existing
// machinery rather than adding a second barrier protocol:
//
//   - A join grows the cluster, the interconnect, the partition-slot
//     set and every per-node array, then waits for the SASPAR layer to
//     move key groups onto the new slots through a normal AQE
//     reconfiguration — the new node's "lease" on its key groups is
//     exactly the marker/alignment handshake every other routing change
//     uses.
//   - A drain is the inverse of a crash: the SASPAR layer first
//     evacuates the node's key groups (an AQE round with the node's
//     partitions excluded from the optimizer domain), then calls
//     RetireNode, which verifies nothing routable remains and marks the
//     node departed. Any residual state (possible only when a fault
//     races the drain) goes through the same destroyed-cell accounting
//     a crash uses, so the checkpoint restore path re-seeds exactly
//     those cells and counting stays exactly-once.
//
// Retired is distinct from down: a crashed node destroys data and
// trips the recovery loop; a retired node left empty-handed, loses
// nothing, and is invisible to fault detection from then on. Both are
// excluded from liveSlotCount, so marker alignment and checkpoint
// barriers complete against the live population only.

// ElasticQuiescent reports whether the engine is in a state where
// membership may change: no reconfiguration or finalize markers in
// flight, no moved state outstanding, and no checkpoint barrier
// aligning. Join and drain are membership changes to the structures
// every one of those protocols indexes, so they only apply between
// rounds.
func (e *Engine) ElasticQuiescent() bool {
	if e.markersInFlight > 0 || e.outstandingState != 0 {
		return false
	}
	if e.inFlightEpoch != 0 && !e.ReconfigComplete(e.inFlightEpoch) {
		return false
	}
	if e.ckpt != nil && e.ckpt.active {
		return false
	}
	return true
}

// AddNode admits one new node at runtime and places `slots` fresh
// partition slots on it (0 means the cluster's current mean live-node
// slot density). The node registers its CPU meter with the cluster and
// its NIC with netsim, every per-node engine array grows, and the new
// partition slots enter the routing domain — empty. No key group is
// assigned to them yet: the SASPAR layer hands the node its key-group
// leases through a subsequent AQE reconfiguration, the same protocol
// any other routing change uses. Returns the new node's ID and the IDs
// of its partition slots.
func (e *Engine) AddNode(slots int) (cluster.NodeID, []int, error) {
	if !e.ElasticQuiescent() {
		return 0, nil, fmt.Errorf("engine: cannot add a node while a reconfiguration or checkpoint is in flight")
	}
	if slots <= 0 {
		slots = len(e.slots) / e.cluster.LiveNodes()
		if slots < 1 {
			slots = 1
		}
	}
	if e.cfg.NumPartitions+slots > e.cfg.NumGroups {
		return 0, nil, fmt.Errorf("engine: %d more slots would exceed the %d key groups (have %d slots)",
			slots, e.cfg.NumGroups, e.cfg.NumPartitions)
	}

	id := e.cluster.AddNode()
	e.net.AddNode()
	e.cfg.Nodes = e.cluster.NumNodes()

	// Grow every per-node structure. provIn is per destination node, so
	// every existing nodeRun gets one more element too.
	nr := &nodeRun{id: id, provIn: make([]float64, e.cfg.Nodes)}
	for _, o := range e.nodes {
		o.provIn = append(o.provIn, 0)
	}
	e.nodes = append(e.nodes, nr)
	e.inboxBytes = append(e.inboxBytes, 0)
	if e.nodeDown != nil {
		e.nodeDown = append(e.nodeDown, false)
	}
	if e.nodeWork != nil {
		e.nodeWork = append(e.nodeWork, 0)
	}
	e.metrics.addNode()

	newParts := make([]int, 0, slots)
	for i := 0; i < slots; i++ {
		p := e.placement.AppendPartition(id)
		e.cfg.NumPartitions++
		s := newSlot(p, id, len(e.tasks))
		e.slots = append(e.slots, s)
		nr.slots = append(nr.slots, s)
		newParts = append(newParts, p)
	}
	// The slot count is compiled into the stream plans.
	if err := e.rebuildPlans(); err != nil {
		panic(err) // the classes are unchanged, so their bound still holds
	}
	return id, newParts, nil
}

// RetireNode completes a drain: the node leaves the cluster for good.
// The caller must already have evacuated its key groups (every active
// query's assignment maps no group to any of the node's partition
// slots) — RetireNode verifies this and refuses otherwise, because
// retiring a slot that still owns groups would silently orphan their
// tuples. Nodes hosting source tasks cannot drain (sources are the
// workload's ingress; only partition-only nodes — in practice, nodes
// that joined elastically — are drain candidates).
//
// A clean drain loses zero counted tuples: evacuation moved the window
// state through the AQE state-transfer path before this call. Entries
// still queued at the node and state resident on it (both possible
// only when a fault races the drain) are destroyed through the same
// cell accounting a crash uses — DrainDestroyedState surfaces them and
// the checkpoint restore path re-seeds exactly those cells.
func (e *Engine) RetireNode(n cluster.NodeID) error {
	if int(n) < 0 || int(n) >= e.cfg.Nodes {
		return fmt.Errorf("engine: retire of unknown node %d", n)
	}
	if e.nodeIsDown(n) {
		return fmt.Errorf("engine: node %d is crashed, not drainable (recovery owns it)", n)
	}
	if e.cluster.Retired(n) {
		return fmt.Errorf("engine: node %d already retired", n)
	}
	if !e.ElasticQuiescent() {
		return fmt.Errorf("engine: cannot retire a node while a reconfiguration or checkpoint is in flight")
	}
	for _, rt := range e.tasks {
		if rt.node == n {
			return fmt.Errorf("engine: node %d hosts source tasks and cannot drain", n)
		}
	}
	if g := e.GroupsOnNode(n); g > 0 {
		return fmt.Errorf("engine: node %d still owns %d key-group assignments; evacuate first", n, g)
	}
	if err := e.cluster.RemoveNode(n); err != nil {
		return err
	}
	e.anyRetired = true
	// Residual cleanup: a clean drain finds nothing here, so lostBytes
	// does not move. Whatever a racing fault left behind is destroyed
	// with full cell accounting so checkpoint restore can re-seed it.
	e.lostBytes += e.purgeNodeQueues(n)
	e.lostBytes += e.destroyNodeState(n)
	return nil
}

// NodeRetired reports whether node n has drained out of the cluster.
func (e *Engine) NodeRetired(n cluster.NodeID) bool { return e.nodeRetired(n) }

// nodeRetired is the hot-path form: one flag check in runs that never
// drained a node.
func (e *Engine) nodeRetired(n cluster.NodeID) bool {
	return e.anyRetired && e.cluster.Retired(n)
}

// GroupsOnNode counts, over all active queries, the key-group
// assignments currently routed to node n's partition slots — the
// quantity a drain must drive to zero before RetireNode.
func (e *Engine) GroupsOnNode(n cluster.NodeID) int {
	count := 0
	for qi := range e.queries {
		if e.queries[qi].inactive {
			continue
		}
		a := e.queries[qi].assign
		for g := 0; g < a.NumGroups(); g++ {
			p := a.Partition(keyspace.GroupID(g))
			if p != keyspace.NoPartition && e.placement.PartitionNode(int(p)) == n {
				count++
			}
		}
	}
	return count
}

// LiveNodes reports how many nodes are neither crashed nor retired.
func (e *Engine) LiveNodes() int {
	live := 0
	for i := 0; i < e.cfg.Nodes; i++ {
		id := cluster.NodeID(i)
		if e.nodeIsDown(id) || e.nodeRetired(id) {
			continue
		}
		live++
	}
	return live
}

// NodeHostsSources reports whether node n runs source router tasks.
// Source-hosting nodes are the workload's ingress and cannot drain; the
// autoscaler picks its drain candidates from the nodes this returns
// false for.
func (e *Engine) NodeHostsSources(n cluster.NodeID) bool {
	for _, rt := range e.tasks {
		if rt.node == n {
			return true
		}
	}
	return false
}

// NumSourceTasks reports the number of source router tasks — the
// denominator for turning StallTicks deltas into a stall fraction.
func (e *Engine) NumSourceTasks() int { return len(e.tasks) }

// StallTicks reports the cumulative count of source-task ticks whose
// prior-tick sends were partially refused by the network — the engine's
// backpressure signal, available without a telemetry registry. Summed
// over per-task counters, so the value is identical at any worker or
// shard count.
func (e *Engine) StallTicks() int64 {
	var n int64
	for _, rt := range e.tasks {
		n += rt.stalls
	}
	return n
}

// InboxBytes reports the delivered-but-unprocessed ingress backlog
// summed over all nodes — the engine-side queue-depth signal the
// autoscaler watches.
func (e *Engine) InboxBytes() float64 {
	var tot float64
	for _, b := range e.inboxBytes {
		tot += b
	}
	return tot
}

// purgeNodeQueues destroys every entry still queued at node n's slots
// with full accounting (in-flight state releases its hold and marks its
// cell destroyed; markers leave the in-flight count) and empties the
// node's ingress buffer. Returns the destroyed bytes. Shared by the
// crash path (SetNodeDown) and the drain path (RetireNode).
func (e *Engine) purgeNodeQueues(n cluster.NodeID) float64 {
	var lost float64
	for _, s := range e.slots {
		if s.node != n {
			continue
		}
		for ei := range s.edges {
			q := &s.edges[ei]
			for !q.empty() {
				en := q.pop()
				lost += en.bytes
				switch en.kind {
				case entryState:
					e.outstandingState--
					e.ckptDropPending(pendKey{en.stQuery, en.stGroup})
					e.markStateDestroyed(pendKey{en.stQuery, en.stGroup})
				case entryMarker:
					e.markersInFlight--
				}
				e.nodes[e.tasks[ei].node].recycle(en)
			}
		}
	}
	e.inboxBytes[n] = 0
	return lost
}
