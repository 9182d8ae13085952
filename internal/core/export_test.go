package core

// TrackedRequestIDs reports how many requests the gateway holds in flight
// across its live client connections (waiting or completed and not yet
// answered, cancelled or not).
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
		for r := cc.oldest; r != nil; r = r.next {
			n++
		}
		n += len(cc.done)
		cc.mu.Unlock()
	}
	return n
}

// MinorOutcomeUnknown is the minor code of a request that was multicast
// and went unanswered (OPERATIONS.md).
const MinorOutcomeUnknown = uint32(minorOutcomeUnknown)
