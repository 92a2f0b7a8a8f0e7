package core

import "repro/internal/hgraph"

// Topology carries nothing. The engine keeps no per-network tables
// beyond H's CSR arrays, which a World reads straight from the network,
// so there is nothing to precompute or share.
type Topology struct{}

// NewTopology returns nil. It keeps the signature its callers use, who
// hand the result to graphio.NetStore.Save, which ignores it.
func NewTopology(*hgraph.Network) *Topology { return nil }
