// Command udpbench drives a multi-process fault tolerance domain (one
// ftdomaind -node per ring member) from the outside, as real IIOP
// clients: an exactly-once audit in which every client appends unique
// markers through the gateway at once, after which the replicated
// register's own state must show that every append executed exactly
// once.
//
// scripts/udpsmoke.sh is the harness that launches the node processes
// and runs this audit against them.
//
// Usage:
//
//	udpbench -freeports 3                      # print free localhost UDP ports
//	udpbench -addr 127.0.0.1:9021 -clients 8 -audit
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"eternalgw/internal/experiments"
	"eternalgw/internal/memnet"
	"eternalgw/internal/orb"
	"eternalgw/internal/udpnet"
)

const (
	demoKey     = "demo/register"
	callTimeout = 15 * time.Second
)

func main() {
	var (
		freePorts = flag.Int("freeports", 0, "print this many free localhost UDP ports and exit (registry construction for the launch scripts)")
		addr      = flag.String("addr", "", "gateway address to drive")
		clients   = flag.Int("clients", 8, "concurrent client connections, each with one request in flight")
		audit     = flag.Bool("audit", false, "run the exactly-once audit (append unique markers, then verify count and content)")
		appends   = flag.Int("audit-appends", 50, "audit appends per client")
	)
	flag.Parse()
	if *freePorts > 0 {
		if err := printFreePorts(*freePorts); err != nil {
			fmt.Fprintln(os.Stderr, "udpbench:", err)
			os.Exit(1)
		}
		return
	}
	if *addr == "" || !*audit {
		fmt.Fprintln(os.Stderr, "udpbench: -addr and -audit required (or -freeports)")
		os.Exit(2)
	}
	if err := run(*addr, *clients, *appends); err != nil {
		fmt.Fprintln(os.Stderr, "udpbench:", err)
		os.Exit(1)
	}
}

// printFreePorts prints the n distinct ports udpnet.LoopbackRegistry
// picks, one per line.
func printFreePorts(n int) error {
	ids := make([]memnet.NodeID, n)
	for i := range ids {
		ids[i] = memnet.NodeID(strconv.Itoa(i))
	}
	registry, err := udpnet.LoopbackRegistry(ids...)
	if err != nil {
		return err
	}
	for _, id := range ids {
		_, port, err := net.SplitHostPort(registry[id])
		if err != nil {
			return err
		}
		fmt.Println(port)
	}
	return nil
}

func run(addr string, clients, appends int) error {
	if clients <= 0 {
		return fmt.Errorf("need at least one client")
	}
	conns := make([]*orb.Conn, clients)
	for i := range conns {
		c, err := orb.Dial(addr)
		if err != nil {
			return fmt.Errorf("dial %s: %w", addr, err)
		}
		defer func() { _ = c.Close() }()
		conns[i] = c
	}
	return auditExactlyOnce(conns, appends, orb.InvokeOptions{Timeout: callTimeout})
}

// auditExactlyOnce has every client append a unique marker sequence
// through the gateway, then checks against the replicated register's own
// state that the operation count advanced by exactly the number of
// appends and that every marker appears exactly once in the register —
// no lost appends, no duplicated executions, over a real lossy network.
func auditExactlyOnce(conns []*orb.Conn, appends int, opts orb.InvokeOptions) error {
	before, err := opsCount(conns[0], opts)
	if err != nil {
		return fmt.Errorf("audit baseline: %w", err)
	}
	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	for i, c := range conns {
		wg.Add(1)
		go func(i int, c *orb.Conn) {
			defer wg.Done()
			for j := 0; j < appends; j++ {
				marker := fmt.Sprintf("c%02dx%04d;", i, j)
				if _, err := c.Call([]byte(demoKey), "append", experiments.OctetSeqArg([]byte(marker)), opts); err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("append %s: %w", marker, err)
					}
					errMu.Unlock()
					return
				}
			}
		}(i, c)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	after, err := opsCount(conns[0], opts)
	if err != nil {
		return fmt.Errorf("audit recount: %w", err)
	}
	want := int64(len(conns) * appends)
	if after-before != want {
		return fmt.Errorf("audit: ops advanced by %d, want %d (lost or duplicated executions)", after-before, want)
	}
	r, err := conns[0].Call([]byte(demoKey), "read", nil, opts)
	if err != nil {
		return fmt.Errorf("audit read: %w", err)
	}
	value := string(r.ReadOctetSeq())
	if err := r.Err(); err != nil {
		return err
	}
	for i := range conns {
		for j := 0; j < appends; j++ {
			marker := fmt.Sprintf("c%02dx%04d;", i, j)
			if n := strings.Count(value, marker); n != 1 {
				return fmt.Errorf("audit: marker %s appears %d times, want exactly once", marker, n)
			}
		}
	}
	fmt.Printf("udpbench: audit ok: %d appends executed exactly once (ops %d -> %d)\n", want, before, after)
	return nil
}

// opsCount reads the register's operation counter.
func opsCount(c *orb.Conn, opts orb.InvokeOptions) (int64, error) {
	r, err := c.Call([]byte(demoKey), "ops", nil, opts)
	if err != nil {
		return 0, err
	}
	n := r.ReadLongLong()
	return n, r.Err()
}
