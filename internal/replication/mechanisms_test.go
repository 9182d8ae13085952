package replication

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"eternalgw/internal/cdr"
	"eternalgw/internal/giop"
)

const (
	grpServer  GroupID = 10
	grpClient  GroupID = 20
	grpNested  GroupID = 30
	testKeyStr         = "test/register"
)

// invokeAsClient performs a top-level invocation from a client-only
// group member (the gateway pattern).
func invokeAsClient(t *testing.T, m *Mechanisms, src GroupID, clientID uint64, dst GroupID, reqID uint32, op string, args []byte) (giop.Reply, error) {
	t.Helper()
	return m.Invoke(src, clientID, dst, OperationID{ParentTS: 0, ChildSeq: reqID}, giop.Request{
		RequestID:        reqID,
		ResponseExpected: true,
		ObjectKey:        []byte(testKeyStr),
		Operation:        op,
		Args:             args,
	}, 5*time.Second)
}

func setupClientServer(t *testing.T, d *domain, style Style, serverNodes, clientNode int) []*regApp {
	t.Helper()
	d.mustCreate(grpServer, style, testKeyStr)
	d.mustCreate(grpClient, style, "")
	apps := make([]*regApp, serverNodes)
	for i := 0; i < serverNodes; i++ {
		apps[i] = &regApp{}
		d.mustJoin(d.ids[i], grpServer, apps[i])
	}
	d.mustJoin(d.ids[clientNode], grpClient, nil)
	// All nodes must see the full membership before invoking.
	for _, n := range d.ids {
		if err := d.rms[n].WaitForMembers(grpServer, serverNodes, 5*time.Second); err != nil {
			t.Fatalf("%s: members: %v", n, err)
		}
	}
	return apps
}

func TestGroupDirectoryAgreement(t *testing.T) {
	d := newDomain(t, 3)
	d.mustCreate(grpServer, Active, testKeyStr)
	for _, n := range d.ids {
		if id, ok := d.rms[n].GroupByKey([]byte(testKeyStr)); !ok || id != grpServer {
			t.Fatalf("%s: GroupByKey = %d, %v", n, id, ok)
		}
		if style, ok := d.rms[n].GroupStyle(grpServer); !ok || style != Active {
			t.Fatalf("%s: style = %v, %v", n, style, ok)
		}
	}
}

func TestCreateGroupIdempotentAcrossCreators(t *testing.T) {
	d := newDomain(t, 2)
	// Both nodes create the same group id with different styles; the
	// first delivered wins everywhere.
	_ = d.rms[d.ids[0]].CreateGroup(grpServer, Active, []byte("k"))
	_ = d.rms[d.ids[1]].CreateGroup(grpServer, WarmPassive, []byte("k"))
	for _, n := range d.ids {
		if err := d.rms[n].WaitForGroup(grpServer, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	s0, _ := d.rms[d.ids[0]].GroupStyle(grpServer)
	s1, _ := d.rms[d.ids[1]].GroupStyle(grpServer)
	if s0 != s1 {
		t.Fatalf("styles diverge: %v vs %v", s0, s1)
	}
}

func TestActiveInvocationExecutesEverywhereDeliversOnce(t *testing.T) {
	d := newDomain(t, 3)
	apps := setupClientServer(t, d, Active, 3, 2)
	client := d.rms[d.ids[2]]

	rep, err := invokeAsClient(t, client, grpClient, 7, grpServer, 1, "set", octets([]byte("hello")))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != giop.ReplyNoException {
		t.Fatalf("status = %v", rep.Status)
	}
	// Every replica executed exactly once.
	deadline := time.Now().Add(2 * time.Second)
	for _, app := range apps {
		for {
			v, ops := app.snapshot()
			if bytes.Equal(v, []byte("hello")) && ops == 1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("replica state = %q ops=%d", v, ops)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	// Three replicas responded; two duplicates suppressed at the client.
	st := client.Stats()
	if st.ResponsesDelivered != 1 {
		t.Fatalf("delivered = %d", st.ResponsesDelivered)
	}
	waitStat(t, func() uint64 { return client.Stats().DuplicateResponses }, 2)
}

func TestDuplicateInvocationSuppressed(t *testing.T) {
	d := newDomain(t, 2)
	apps := setupClientServer(t, d, Active, 1, 1)
	client := d.rms[d.ids[1]]

	if _, err := invokeAsClient(t, client, grpClient, 9, grpServer, 5, "append", octets([]byte("x"))); err != nil {
		t.Fatal(err)
	}
	// Reissue the identical operation (same client id, same request id):
	// the replica must answer from its cache without re-executing.
	rep, err := invokeAsClient(t, client, grpClient, 9, grpServer, 5, "append", octets([]byte("x")))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != giop.ReplyNoException {
		t.Fatalf("status = %v", rep.Status)
	}
	if _, ops := apps[0].snapshot(); ops != 1 {
		t.Fatalf("ops = %d, want 1 (duplicate executed!)", ops)
	}
	server := d.rms[d.ids[0]]
	waitStat(t, func() uint64 { return server.Stats().DuplicateInvocations }, 1)
}

func TestDistinctClientsSameRequestIDBothExecute(t *testing.T) {
	// The TCP client identifier disambiguates clients that happen to use
	// the same request ids (paper section 3.2).
	d := newDomain(t, 2)
	apps := setupClientServer(t, d, Active, 1, 1)
	client := d.rms[d.ids[1]]

	if _, err := invokeAsClient(t, client, grpClient, 1, grpServer, 5, "append", octets([]byte("a"))); err != nil {
		t.Fatal(err)
	}
	if _, err := invokeAsClient(t, client, grpClient, 2, grpServer, 5, "append", octets([]byte("b"))); err != nil {
		t.Fatal(err)
	}
	if v, ops := apps[0].snapshot(); ops != 2 || !bytes.Equal(v, []byte("ab")) {
		t.Fatalf("state = %q ops=%d", v, ops)
	}
}

func TestReplicaConsistencyUnderConcurrentClients(t *testing.T) {
	d := newDomain(t, 3)
	apps := setupClientServer(t, d, Active, 3, 2)
	client := d.rms[d.ids[2]]

	const calls = 60
	done := make(chan error, 3)
	for c := 0; c < 3; c++ {
		go func(clientID uint64) {
			for i := 1; i <= calls/3; i++ {
				if _, err := invokeAsClient(t, client, grpClient, clientID, grpServer, uint32(i), "append", octets([]byte{byte(clientID)})); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(uint64(c + 1))
	}
	for c := 0; c < 3; c++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	// All replicas converge to identical state.
	deadline := time.Now().Add(3 * time.Second)
	for {
		v0, o0 := apps[0].snapshot()
		v1, o1 := apps[1].snapshot()
		v2, o2 := apps[2].snapshot()
		if o0 == calls && o1 == calls && o2 == calls {
			if !bytes.Equal(v0, v1) || !bytes.Equal(v1, v2) {
				t.Fatalf("replica divergence: %q %q %q", v0, v1, v2)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("ops = %d %d %d, want %d", o0, o1, o2, calls)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestStateTransferToLateJoiner(t *testing.T) {
	d := newDomain(t, 3)
	d.mustCreate(grpServer, Active, testKeyStr)
	d.mustCreate(grpClient, Active, "")
	app0 := &regApp{}
	d.mustJoin(d.ids[0], grpServer, app0)
	d.mustJoin(d.ids[2], grpClient, nil)
	client := d.rms[d.ids[2]]

	for i := 1; i <= 5; i++ {
		if _, err := invokeAsClient(t, client, grpClient, 1, grpServer, uint32(i), "append", octets([]byte{byte('0' + i)})); err != nil {
			t.Fatal(err)
		}
	}
	// Late joiner must receive the accumulated state.
	app1 := &regApp{}
	d.mustJoin(d.ids[1], grpServer, app1)
	v, ops := app1.snapshot()
	if !bytes.Equal(v, []byte("12345")) || ops != 5 {
		t.Fatalf("joiner state = %q ops=%d", v, ops)
	}
	// And must execute subsequent invocations.
	if _, err := invokeAsClient(t, client, grpClient, 1, grpServer, 6, "append", octets([]byte("6"))); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool {
		v, _ := app1.snapshot()
		return bytes.Equal(v, []byte("123456"))
	})
	if st := d.rms[d.ids[0]].Stats(); st.StateTransfers != 1 {
		t.Fatalf("state transfers = %d", st.StateTransfers)
	}
}

func TestWarmPassiveOnlyPrimaryExecutes(t *testing.T) {
	d := newDomain(t, 3)
	apps := setupClientServer(t, d, WarmPassive, 2, 2)
	client := d.rms[d.ids[2]]

	for i := 1; i <= 3; i++ {
		if _, err := invokeAsClient(t, client, grpClient, 1, grpServer, uint32(i), "append", octets([]byte("x"))); err != nil {
			t.Fatal(err)
		}
	}
	if _, ops := apps[0].snapshot(); ops != 3 {
		t.Fatalf("primary ops = %d", ops)
	}
	// The backup has not executed anything (it may have applied a state
	// sync, which sets ops wholesale, but at sync interval 4 none
	// happened yet).
	if _, ops := apps[1].snapshot(); ops != 0 {
		t.Fatalf("backup ops = %d, want 0", ops)
	}
}

func TestWarmPassiveFailover(t *testing.T) {
	d := newDomain(t, 3)
	apps := setupClientServer(t, d, WarmPassive, 2, 2)
	client := d.rms[d.ids[2]]

	// 6 ops: one sync at 4, entries 5..6 pending in the backup's log.
	for i := 1; i <= 6; i++ {
		if _, err := invokeAsClient(t, client, grpClient, 1, grpServer, uint32(i), "append", octets([]byte{byte('0' + i)})); err != nil {
			t.Fatal(err)
		}
	}
	d.net.Crash(d.ids[0])
	// The backup is promoted and reconstructs the primary's exact state.
	waitFor(t, 5*time.Second, func() bool {
		v, ops := apps[1].snapshot()
		return ops == 6 && bytes.Equal(v, []byte("123456"))
	})
	// New invocations are served by the new primary.
	rep, err := invokeAsClient(t, client, grpClient, 1, grpServer, 7, "read", nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != giop.ReplyNoException {
		t.Fatalf("status = %v", rep.Status)
	}
	waitStat(t, func() uint64 { return d.rms[d.ids[1]].Stats().Failovers }, 1)
}

func TestColdPassiveFailoverRecoversFromLog(t *testing.T) {
	d := newDomain(t, 3)
	apps := setupClientServer(t, d, ColdPassive, 2, 2)
	client := d.rms[d.ids[2]]

	// A checkpoint at checkpointInterval, and two entries in the log.
	var want []byte
	for i := 1; i <= checkpointInterval+2; i++ {
		want = append(want, byte('a'+i-1))
		if _, err := invokeAsClient(t, client, grpClient, 1, grpServer, uint32(i), "append", octets(want[i-1:])); err != nil {
			t.Fatal(err)
		}
	}
	// Cold backup's application is untouched before failover.
	if _, ops := apps[1].snapshot(); ops != 0 {
		t.Fatalf("cold backup ops = %d before failover", ops)
	}
	d.net.Crash(d.ids[0])
	waitFor(t, 5*time.Second, func() bool {
		v, ops := apps[1].snapshot()
		return ops == int64(len(want)) && bytes.Equal(v, want)
	})
	st := d.rms[d.ids[1]].Stats()
	if st.Failovers != 1 {
		t.Fatalf("failovers = %d", st.Failovers)
	}
	if st.ReplayedInvocations != 2 {
		t.Fatalf("replayed = %d, want 2 (since checkpoint)", st.ReplayedInvocations)
	}
}

func TestVotingRequiresMajority(t *testing.T) {
	d := newDomain(t, 3)
	setupClientServer(t, d, ActiveWithVoting, 3, 2)
	client := d.rms[d.ids[2]]

	rep, err := invokeAsClient(t, client, grpClient, 1, grpServer, 1, "set", octets([]byte("v")))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != giop.ReplyNoException {
		t.Fatalf("status = %v", rep.Status)
	}
}

func TestNestedInvocation(t *testing.T) {
	d := newDomain(t, 3)
	d.mustCreate(grpServer, Active, testKeyStr)
	d.mustCreate(grpNested, Active, "nested/target")
	d.mustCreate(grpClient, Active, "")

	// The nested target is a register.
	nestedApps := []*regApp{{}, {}}
	d.mustJoin(d.ids[0], grpNested, nestedApps[0])
	d.mustJoin(d.ids[1], grpNested, nestedApps[1])

	// The front servant forwards "relay" calls to the nested target.
	mkFront := func(m *Mechanisms) Application {
		h := m.Handle(grpServer)
		return &relayApp{h: h}
	}
	d.mustJoin(d.ids[0], grpServer, mkFront(d.rms[d.ids[0]]))
	d.mustJoin(d.ids[1], grpServer, mkFront(d.rms[d.ids[1]]))
	d.mustJoin(d.ids[2], grpClient, nil)
	for _, n := range d.ids {
		if err := d.rms[n].WaitForMembers(grpServer, 2, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	client := d.rms[d.ids[2]]
	rep, err := invokeAsClient(t, client, grpClient, 1, grpServer, 1, "relay", octets([]byte("deep")))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != giop.ReplyNoException {
		t.Fatalf("status = %v", rep.Status)
	}
	// Both front replicas issued the nested call with the identical
	// operation identifier, so the nested target executed it exactly
	// once per replica of the nested group.
	waitFor(t, 2*time.Second, func() bool {
		v0, o0 := nestedApps[0].snapshot()
		v1, o1 := nestedApps[1].snapshot()
		return o0 == 1 && o1 == 1 && bytes.Equal(v0, []byte("deep")) && bytes.Equal(v1, []byte("deep"))
	})
}

func TestInvokeUnknownGroup(t *testing.T) {
	d := newDomain(t, 1)
	_, err := d.rms[d.ids[0]].Invoke(grpClient, 0, 999, OperationID{ChildSeq: 1}, giop.Request{RequestID: 1}, time.Second)
	if !errors.Is(err, ErrNoSuchGroup) {
		t.Fatalf("err = %v, want ErrNoSuchGroup", err)
	}
}

func TestInvokeTimesOutWithNoServants(t *testing.T) {
	d := newDomain(t, 2)
	d.mustCreate(grpServer, Active, testKeyStr)
	d.mustCreate(grpClient, Active, "")
	d.mustJoin(d.ids[1], grpClient, nil)
	_, err := invokeWithTimeout(d.rms[d.ids[1]], grpClient, grpServer, 150*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestDoubleJoinRejected(t *testing.T) {
	d := newDomain(t, 1)
	d.mustCreate(grpServer, Active, testKeyStr)
	d.mustJoin(d.ids[0], grpServer, &regApp{})
	if err := d.rms[d.ids[0]].JoinGroup(grpServer, &regApp{}); !errors.Is(err, ErrAlreadyMember) {
		t.Fatalf("err = %v, want ErrAlreadyMember", err)
	}
}

func TestLeaveGroupStopsExecution(t *testing.T) {
	d := newDomain(t, 2)
	apps := setupClientServer(t, d, Active, 1, 1)
	client := d.rms[d.ids[1]]
	if _, err := invokeAsClient(t, client, grpClient, 1, grpServer, 1, "append", octets([]byte("x"))); err != nil {
		t.Fatal(err)
	}
	if err := d.rms[d.ids[0]].LeaveGroup(grpServer); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool {
		return len(d.rms[d.ids[1]].Members(grpServer)) == 0
	})
	_, err := invokeWithTimeout(client, grpClient, grpServer, 150*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if _, ops := apps[0].snapshot(); ops != 1 {
		t.Fatalf("ops = %d after leave", ops)
	}
}

// relayApp forwards "relay" invocations to the nested target group.
type relayApp struct {
	h *Handle
}

func (a *relayApp) Invoke(op string, args *cdr.Reader, reply *cdr.Writer) error {
	if op != "relay" {
		return fmt.Errorf("relayApp: unknown op %q", op)
	}
	payload := args.ReadOctetSeq()
	if err := args.Err(); err != nil {
		return err
	}
	r, err := a.h.Invoke([]byte("nested/target"), "set", octets(payload), 5*time.Second)
	if err != nil {
		return err
	}
	reply.WriteLongLong(r.ReadLongLong())
	return r.Err()
}

func (a *relayApp) State() ([]byte, error) { return nil, nil }
func (a *relayApp) SetState([]byte) error  { return nil }

func invokeWithTimeout(m *Mechanisms, src, dst GroupID, timeout time.Duration) (giop.Reply, error) {
	return m.Invoke(src, 0, dst, OperationID{ChildSeq: 1}, giop.Request{
		RequestID:        1,
		ResponseExpected: true,
		ObjectKey:        []byte(testKeyStr),
		Operation:        "read",
	}, timeout)
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func waitStat(t *testing.T, get func() uint64, want uint64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if got := get(); got >= want {
			if got != want {
				t.Fatalf("stat = %d, want %d", got, want)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("stat = %d, want %d", get(), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
