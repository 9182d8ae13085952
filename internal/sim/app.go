package sim

// Op is one invocation flowing through a simulated domain: a client
// request admitted by a gateway, or a nested invocation a replica group
// emits against another domain (the paper's cross-domain bridge, which
// every replica calls through the remote domain's gateways as a thin
// client).
type Op struct {
	Key   OpKey
	Dom   int // target domain
	Group int // target object group within the domain
	Name  string
	Arg   uint64
	Arg2  uint64
	Arg3  uint64
	// ReplyTo is the memnet id of the thin client that sent this copy:
	// a sim client, or a protocol node calling a bridge op (each sends
	// its own copy, so the remote gateway answers each caller).
	ReplyTo string
}

// keyHash folds an op's identity into a state hash.
func (o *Op) keyHash() uint64 {
	h := mix64(o.Key.Client, o.Key.A)
	h = mix64(h, o.Key.B)
	h = mix64(h, o.Arg)
	h = mix64(h, o.Arg2)
	return mix64(h, o.Arg3)
}

// App is a deterministic replicated state machine hosted by every
// protocol node of a domain. Apply executes one ordered invocation and
// may emit nested ops (with caller-supplied deterministic keys, so all
// replicas emit the identical nested invocation and the remote
// gateways' duplicate suppression collapses the copies — the paper's
// figure 4c). Hash is an order-sensitive digest of the applied history;
// Total is the workload-level aggregate the checkers audit (counter
// value, balance sum).
type App interface {
	Apply(op *Op, seq uint64, emit func(*Op)) uint64
	Hash() uint64
	Total() uint64
	Clone() App
}

// counterApp is the default workload's state machine: a single counter
// per group, incremented by each op's Arg.
type counterApp struct {
	count uint64
	hash  uint64
}

func newCounterApp() App { return &counterApp{} }

func (a *counterApp) Apply(op *Op, seq uint64, emit func(*Op)) uint64 {
	a.count += op.Arg
	a.hash = mix64(mix64(a.hash, op.keyHash()), a.count)
	return a.count
}

func (a *counterApp) Hash() uint64  { return a.hash }
func (a *counterApp) Total() uint64 { return a.count }
func (a *counterApp) Clone() App    { c := *a; return &c }

// bankApp is the bank-transfer workload's state machine. The west
// instance holds the debit side: a "transfer" op debits a local account
// (saturating, so the transferred amount is a deterministic function of
// replicated state) and emits a "credit" against the east domain keyed
// by the transfer's global sequence — identical from every replica, so
// the east replicas execute it exactly once. The east instance applies
// credits. Total is the balance sum, which the conservation checker
// adds across domains.
type bankApp struct {
	bal  []uint64
	hash uint64
	// eastDom/eastGroup is the credit target for the west instance;
	// eastDom is -1 for the east instance itself.
	eastDom   int
	eastGroup int
}

// bridgeClient is the OpKey.Client value of bank bridge ops: a
// reserved id no thin client uses.
const bridgeClient = 1 << 32

func newBankApp(accounts int, funding uint64, eastDom, eastGroup int) *bankApp {
	bal := make([]uint64, accounts)
	for i := range bal {
		bal[i] = funding
	}
	return &bankApp{bal: bal, eastDom: eastDom, eastGroup: eastGroup}
}

func (a *bankApp) Apply(op *Op, seq uint64, emit func(*Op)) uint64 {
	var val uint64
	switch op.Name {
	case "transfer":
		from := int(op.Arg) % len(a.bal)
		amt := op.Arg3
		if amt > a.bal[from] {
			amt = a.bal[from]
		}
		a.bal[from] -= amt
		emit(&Op{
			Key:   OpKey{Client: bridgeClient, A: seq, B: 0},
			Dom:   a.eastDom,
			Group: a.eastGroup,
			Name:  "credit",
			Arg:   op.Arg2,
			Arg3:  amt,
		})
		val = amt
	case "credit":
		to := int(op.Arg) % len(a.bal)
		a.bal[to] += op.Arg3
		val = a.bal[to]
	}
	a.hash = mix64(mix64(a.hash, op.keyHash()), val)
	return val
}

func (a *bankApp) Hash() uint64 { return a.hash }

func (a *bankApp) Total() uint64 {
	var sum uint64
	for _, b := range a.bal {
		sum += b
	}
	return sum
}

func (a *bankApp) Clone() App {
	c := *a
	c.bal = append([]uint64(nil), a.bal...)
	return &c
}
