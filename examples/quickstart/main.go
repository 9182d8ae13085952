// Quickstart: one fault tolerance domain, a triple-replicated counter,
// one gateway, and a plain unreplicated IIOP client invoking through it.
//
// The client never learns that the server is replicated: the published
// IOR points at the gateway, the gateway multicasts each request to the
// server group in total order, and the three replicas' responses are
// deduplicated down to one (paper figure 3).
//
// Run with: go run ./examples/quickstart (go test ./examples/quickstart
// runs it too).
package main

import (
	"fmt"
	"os"

	"eternalgw/internal/cdr"
	"eternalgw/internal/domain"
	"eternalgw/internal/experiments"
	"eternalgw/internal/ftmgmt"
	"eternalgw/internal/orb"
	"eternalgw/internal/replication"
)

const (
	group     replication.GroupID = 100
	objectKey                     = "quickstart/register"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	// 1. Start a domain: 4 processors, a totem ring, replication
	//    mechanisms everywhere.
	d, err := domain.New(domain.Config{Name: "quickstart", Nodes: 4})
	if err != nil {
		return err
	}
	defer d.Close()

	// 2. Ask the Replication Manager for a triple-replicated register.
	err = d.Manager().CreateReplicatedObject(group, ftmgmt.Properties{
		Style:           replication.Active,
		InitialReplicas: 3,
		MinReplicas:     2,
		ObjectKey:       []byte(objectKey),
		TypeID:          "IDL:eternalgw/Register:1.0",
	}, func() (replication.Application, error) {
		return &experiments.RegisterApp{}, nil
	})
	if err != nil {
		return err
	}

	// 3. Put a gateway on the domain edge and publish the IOR external
	//    clients will use. The IOR's host:port is the gateway's — the
	//    interceptor's address rewriting at work.
	if _, err := d.AddGateway(3, ""); err != nil {
		return err
	}
	ref, err := d.PublishIOR("IDL:eternalgw/Register:1.0", []byte(objectKey))
	if err != nil {
		return err
	}
	fmt.Println("published IOR (points at the gateway):")
	fmt.Println(ref.String()[:64] + "...")

	// 4. A completely ordinary IIOP client: resolve, connect, invoke.
	obj, conn, err := orb.Resolve(ref)
	if err != nil {
		return err
	}
	defer func() { _ = conn.Close() }()

	for _, word := range []string{"fault", " tolerance", " domains"} {
		r, err := obj.Call("append", experiments.OctetSeqArg([]byte(word)), orb.InvokeOptions{})
		if err != nil {
			return err
		}
		fmt.Printf("append(%q) -> op #%d\n", word, r.ReadLongLong())
	}
	r, err := obj.Call("read", nil, orb.InvokeOptions{})
	if err != nil {
		return err
	}
	value := r.ReadOctetSeq()
	fmt.Printf("read() -> %q\n", value)
	if err := r.Err(); err != nil {
		return err
	}
	if string(value) != "fault tolerance domains" {
		return fmt.Errorf("the register holds %q, not the three appends", value)
	}

	// 5. Show what the infrastructure did behind the client's back.
	var dup uint64
	for i := 0; i < d.Nodes(); i++ {
		dup += d.Node(i).RM.Stats().DuplicateResponses
	}
	fmt.Printf("\nbehind the scenes: 3 replicas answered every request; %d duplicate responses were suppressed\n", dup)
	readCDRNote()
	return nil
}

// readCDRNote shows that the reply bodies really are CDR.
func readCDRNote() {
	w := cdr.NewWriter(cdr.BigEndian)
	w.WriteString("all message bodies are CORBA CDR")
	r := cdr.NewReader(w.Bytes(), cdr.BigEndian)
	fmt.Println("note:", r.ReadString())
}
