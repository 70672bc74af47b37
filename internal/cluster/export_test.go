package cluster

import "hades/internal/netsim"

// InjectFault lets the external tests chain their own fault hooks (a
// slow port, a retention tap) the way the typed fault methods do.
func (c *Cluster) InjectFault(h netsim.FaultHook) { c.injectFault(h) }
