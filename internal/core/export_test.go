package core

// TrackedRequestIDs reports how many request ids the gateway holds
// across its live client connections (in flight, cancelled or not).
func (g *Gateway) TrackedRequestIDs() int {
	g.mu.Lock()
	ccs := make([]*clientConn, 0, len(g.conns))
	for _, cc := range g.conns {
		ccs = append(ccs, cc)
	}
	g.mu.Unlock()
	n := 0
	for _, cc := range ccs {
		cc.mu.Lock()
		n += len(cc.inflight)
		cc.mu.Unlock()
	}
	return n
}
