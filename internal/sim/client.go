package sim

import (
	"fmt"
	"math/rand"
	"time"

	"eternalgw/internal/memnet"
	"eternalgw/internal/vclock"
)

const (
	clientBaseTO = 20 * time.Millisecond
	clientMaxTO  = 60 * time.Millisecond
	thinkTime    = 200 * time.Microsecond
)

// callTimeout is how long a thin client waits on one gateway before it
// reissues to the next: clientBaseTO for each attempt made, at most
// clientMaxTO.
func callTimeout(attempt int) time.Duration {
	return min(clientBaseTO*time.Duration(attempt), clientMaxTO)
}

// client is a simulated thin client: closed-loop, one outstanding
// operation, reissuing with the same operation identifier on timeout
// and rotating to the next gateway (the paper's failover discipline —
// correctness rests on the gateways' duplicate suppression, not on the
// client being careful).
type client struct {
	w       *world
	dom     int
	idx     int
	id      uint64 // OpKey.Client
	nid     memnet.NodeID
	ep      *memnet.Endpoint
	gws     []memnet.NodeID
	rng     *rand.Rand
	seq     uint64
	cur     *Op
	attempt int
	gwIdx   int
	timer   *vclock.Timer
	nextOp  func(c *client) *Op
}

func clientName(idx int) memnet.NodeID { return memnet.NodeID(fmt.Sprintf("zc%02d", idx)) }

func (c *client) after(d time.Duration, f func()) *vclock.Timer {
	return c.w.clock.After(d, func() {
		if c.w.done {
			return
		}
		f()
	})
}

func (c *client) trace(e Event) {
	e.T = c.w.clock.Now()
	e.Dom = c.dom
	e.Node = c.idx
	c.w.record(e)
}

func (c *client) start() {
	c.after(time.Duration(c.idx)*73*time.Microsecond, c.issueNext)
}

func (c *client) issueNext() {
	op := c.nextOp(c)
	if op == nil {
		c.w.workerDone()
		return
	}
	c.cur = op
	c.attempt = 1
	c.trace(Event{Kind: EvIssue, Group: op.Group, Op: op.Key})
	c.sendCur()
}

func (c *client) sendCur() {
	gw := c.gws[c.gwIdx%len(c.gws)]
	c.w.send(c.ep, gw, &msg{kind: mRequest, op: c.cur})
	to := callTimeout(c.attempt) + time.Duration(c.rng.Int63n(int64(2*time.Millisecond)))
	if c.timer != nil {
		c.timer.Stop()
	}
	c.timer = c.after(to, c.onTimeout)
}

func (c *client) onTimeout() {
	if c.cur == nil {
		return
	}
	c.attempt++
	c.gwIdx++
	c.trace(Event{Kind: EvReissue, Group: c.cur.Group, Op: c.cur.Key, Val: uint64(c.attempt)})
	c.sendCur()
}

func (c *client) handle(m *msg) {
	if m == nil || m.kind != mReply {
		return
	}
	if c.cur == nil || m.op.Key != c.cur.Key {
		c.trace(Event{Kind: EvReplyDup, Group: m.op.Group, Op: m.op.Key})
		return
	}
	op := c.cur
	c.cur = nil
	if c.timer != nil {
		c.timer.Stop()
	}
	c.trace(Event{Kind: EvReplyOK, Group: op.Group, Op: op.Key, Val: uint64(c.attempt)})
	c.w.opCompleted()
	c.after(thinkTime+time.Duration(c.rng.Int63n(int64(100*time.Microsecond))), c.issueNext)
}
