package sim

// domSpec describes one simulated domain's topology: size protocol
// nodes, of which the last `gateways` double as gateways; every node
// replicates all `groups` object groups.
type domSpec struct {
	size     int
	gateways int
	groups   int
	app      func(group int) App
}

// workloadSpec wires a workload: topology, client population, the op
// generator, and the checker options its invariants need.
type workloadSpec struct {
	name         string
	doms         []domSpec
	clients      int
	opsPerClient int
	bankInitial  uint64
	nextOp       func(c *client) *Op
}

func (s *workloadSpec) checkOpts() CheckOpts {
	return CheckOpts{
		Bank:        s.bankInitial != 0,
		BankInitial: s.bankInitial,
	}
}

// Workload names accepted by Config.Workload.
const (
	WorkloadCounter = "counter"
	WorkloadBank    = "bank"
)

// Workloads lists the available workload names.
func Workloads() []string { return []string{WorkloadCounter, WorkloadBank} }

const (
	bankAccounts = 4
	bankFunding  = 1000
)

func specFor(name string) *workloadSpec {
	switch name {
	case WorkloadBank:
		spec := &workloadSpec{
			name: WorkloadBank,
			doms: []domSpec{
				{size: 5, gateways: 2, groups: 1, app: func(int) App {
					return newBankApp(bankAccounts, bankFunding, 1, 0)
				}},
				{size: 5, gateways: 2, groups: 1, app: func(int) App {
					return newBankApp(bankAccounts, bankFunding, -1, 0)
				}},
			},
			clients:      3,
			opsPerClient: 10,
			bankInitial:  2 * bankAccounts * bankFunding,
		}
		spec.nextOp = func(c *client) *Op {
			if int(c.seq) >= spec.opsPerClient {
				return nil
			}
			c.seq++
			return &Op{
				Key:     OpKey{Client: c.id, B: c.seq},
				Dom:     0,
				Group:   0,
				Name:    "transfer",
				Arg:     uint64(c.rng.Intn(bankAccounts)),
				Arg2:    uint64(c.rng.Intn(bankAccounts)),
				Arg3:    1 + uint64(c.rng.Intn(50)),
				ReplyTo: string(c.nid),
			}
		}
		return spec
	default:
		spec := &workloadSpec{
			name:         WorkloadCounter,
			doms:         []domSpec{{size: 7, gateways: 2, groups: 2, app: func(int) App { return newCounterApp() }}},
			clients:      4,
			opsPerClient: 15,
		}
		spec.nextOp = func(c *client) *Op {
			if int(c.seq) >= spec.opsPerClient {
				return nil
			}
			c.seq++
			return &Op{
				Key:     OpKey{Client: c.id, B: c.seq},
				Dom:     0,
				Group:   int(c.seq) % spec.doms[0].groups,
				Name:    "add",
				Arg:     1 + uint64(c.rng.Intn(100)),
				ReplyTo: string(c.nid),
			}
		}
		return spec
	}
}
