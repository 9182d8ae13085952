// Package looplock rejects blocking operations reachable from the
// replication event loop's datapath dispatch.
//
// The event loop is the totem node's protocol goroutine, which steps the
// replication mechanisms in place (totem.Node.Run → replication/loop.go
// step → handleDelivery): one blocked callback stalls the ring itself,
// token and all. The datapath header kinds (invocations, responses,
// voting responses, observer notifications, gateway control) are
// dispatched under a read lock and must stay wait-free; only the rare
// membership/state-transfer kinds may take the directory write lock,
// which is why the analyzer roots at the datapath handlers rather than
// at handleDelivery itself.
//
// Its roots are the functions whose declaration carries a
// "gwlint:eventloop" directive comment — replication's datapath
// handlers (deliverInvocation, deliverResponse, deliverVotingResponse,
// deliverGatewayControl) and totem's leader-mode send hooks
// ((*Core).forwardPending, leaderOrderPending), which run on the ring's
// protocol goroutine — plus any function passed to
// (*Mechanisms).SetObserver. A directive moves with the function it
// marks. From the roots the analyzer walks the static call graph of the
// package under analysis (internal/analysis/callgraph) and reports:
//
//   - time.Sleep;
//   - (*sync.RWMutex).Lock — the directory write lock; RLock and plain
//     (*sync.Mutex).Lock are allowed, the sharded tables take short
//     leaf-level mutex sections by design;
//   - (*sync.WaitGroup).Wait and (*sync.Cond).Wait;
//   - network sends (net dials/listens, memnet/udpnet Send, Broadcast);
//   - channel sends, unless the send is the comm case of a select with
//     a default clause, or every make site for that channel in the
//     package has a constant capacity greater than zero (a buffered
//     handoff such as pendingCall.ch cannot block its single producer).
//
// Code launched with go inside a reachable function runs off the loop
// and is skipped. Dynamic calls (interface methods, function values)
// cannot be resolved statically and are trusted; the blocking set is
// made of leaf operations precisely so the important cases need no
// callee bodies.
package looplock

import (
	"go/ast"

	"eternalgw/internal/analysis"
	"eternalgw/internal/analysis/callgraph"
)

// setObserverKey is the registration point whose function argument runs
// on the loop.
const setObserverKey = "eternalgw/internal/replication.Mechanisms.SetObserver"

// blockingCalls maps callee keys to what to call them in the report.
var blockingCalls = map[string]string{
	"time.Sleep":          "time.Sleep",
	"sync.RWMutex.Lock":   "write-Lock of a sync.RWMutex (the directory lock)",
	"sync.WaitGroup.Wait": "sync.WaitGroup.Wait",
	"sync.Cond.Wait":      "sync.Cond.Wait",
	"net.Dial":            "net.Dial",
	"net.DialTimeout":     "net.DialTimeout",
	"net.Listen":          "net.Listen",
	"net.ListenUDP":       "net.ListenUDP",
	"net.ListenPacket":    "net.ListenPacket",

	"eternalgw/internal/memnet.Endpoint.Send":      "memnet send",
	"eternalgw/internal/memnet.Endpoint.Broadcast": "memnet broadcast",
	"eternalgw/internal/udpnet.Endpoint.Broadcast": "udpnet broadcast",
	"eternalgw/internal/udpnet.Listen":             "udpnet.Listen",
}

var Analyzer = &analysis.Analyzer{
	Name: "looplock",
	Doc:  "rejects blocking calls reachable from the replication event loop's datapath dispatch",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	g := callgraph.New(pass.Files, pass.TypesInfo)
	chans := g.Chans()

	roots := g.DirectiveRoots("eventloop")
	// Anything registered with SetObserver runs on the loop, whichever
	// package registers it.
	roots = append(roots, g.RegisteredArgs(setObserverKey)...)

	// safeSends are send statements that are comm cases of a select with
	// a default clause: non-blocking by construction.
	safeSends := make(map[*ast.SendStmt]bool)

	g.Walk(roots, &callgraph.Walk{
		FollowGoBodies: false,
		Node: func(n ast.Node, path string) bool {
			switch n := n.(type) {
			case *ast.SelectStmt:
				hasDefault := false
				for _, cl := range n.Body.List {
					if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
						hasDefault = true
					}
				}
				if hasDefault {
					for _, cl := range n.Body.List {
						if cc, ok := cl.(*ast.CommClause); ok {
							if s, ok := cc.Comm.(*ast.SendStmt); ok {
								safeSends[s] = true
							}
						}
					}
					return true
				}
				// A select without default can wait indefinitely.
				pass.Reportf(n.Pos(),
					"select without default may block the replication event loop (reachable via %s)", path)
				return false
			case *ast.SendStmt:
				if !safeSends[n] && !chans.ProvablyBuffered(n.Chan) {
					pass.Reportf(n.Pos(),
						"channel send may block the replication event loop (reachable via %s); use a buffered channel or select with default", path)
				}
				return true
			case *ast.CallExpr:
				key := analysis.FuncKey(analysis.Callee(pass.TypesInfo, n))
				if what, ok := blockingCalls[key]; ok {
					pass.Reportf(n.Pos(),
						"%s on the replication event loop (reachable via %s)", what, path)
				}
				return true
			}
			return true
		},
	})
	return nil
}
