package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"fastsc/internal/bench"
	"fastsc/internal/circuit"
	"fastsc/internal/core"
	"fastsc/internal/expt"
	"fastsc/internal/qasm"
	"fastsc/internal/server"
	"fastsc/internal/topology"
)

// request is one generated POST /v1/compile body. label names the circuit
// (a Fig 9 row, or family, size and circuit seed), so the correctness gate
// can key each job's expected result on label + "/" + strategy whatever
// stream position the request takes.
type request struct {
	label      string
	body       []byte
	strategies []string
}

// jobKey is the correctness-gate key of the job at index i of r.
func (r request) jobKey(i int) string { return r.label + "/" + r.strategies[i] }

// workload is one benchmark traffic mix: the fixed set-up requests and a
// seeded timed stream. Every request is generated by the harness before it
// is timed; the program under test only ever sees the bodies.
type workload struct {
	name string
	// setup is one set-up pass, identical for every seed.
	setup []request
	// warm makes set-up attach a warm set saved from a cold pass of setup.
	warm bool
	// stream returns the seeded timed stream; calling it twice with one
	// seed yields two generators of byte-identical sequences.
	stream func(seed int64) func() request
	// chunk is how many requests are generated, untimed, ahead of each
	// timed stretch of the closed loop: about a second of requests, so the
	// GC forced between stretches is rare beside the program's own.
	chunk int
}

var workloadNames = []string{"fig9-warm", "unique-cold", "deep100"}

func newWorkload(name string) (*workload, error) {
	switch name {
	case "fig9-warm":
		rows := fig9Rows()
		return &workload{name: name, setup: rows, warm: true, chunk: 16 * len(rows), stream: func(seed int64) func() request {
			order := rand.New(rand.NewSource(seed)).Perm(len(rows))
			i := 0
			return func() request {
				r := rows[order[i%len(order)]]
				i++
				return r
			}
		}}, nil
	case "unique-cold":
		primes := uniquePrimes()
		return &workload{name: name, setup: primes, chunk: 6 * len(uniqueClasses), stream: func(seed int64) func() request {
			return newUniqueStream(seed, primes).next
		}}, nil
	case "deep100":
		return &workload{name: name, setup: []request{deepRequest(deepPrimeSeed)}, chunk: 16, stream: func(seed int64) func() request {
			rng := rand.New(rand.NewSource(seed))
			return func() request {
				s := rng.Int63()
				for s == deepPrimeSeed {
					s = rng.Int63()
				}
				return deepRequest(s)
			}
		}}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// encodeRequest renders one request: every job carries circ under one
// strategy, as QASM where qasm.Write can render it and as the native gate
// list otherwise (XEB's SY/SW gates have no QASM form).
func encodeRequest(label string, circ *circuit.Circuit, qubits int, placement core.Placement, strategies []string) request {
	req := server.CompileRequest{
		Device:  server.DeviceSpec{Topology: "grid", Qubits: qubits},
		Options: server.OptionsSpec{Placement: string(placement)},
	}
	src, err := qasm.Write(circ)
	var native *server.CircuitSpec
	if err != nil {
		native = nativeSpec(circ)
		src = ""
	}
	for _, s := range strategies {
		req.Jobs = append(req.Jobs, server.JobSpec{ID: label + "/" + s, Strategy: s, QASM: src, Circuit: native})
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // plain structs of strings and numbers always marshal
	}
	return request{label: label, body: body, strategies: strategies}
}

func nativeSpec(c *circuit.Circuit) *server.CircuitSpec {
	cs := &server.CircuitSpec{Qubits: c.NumQubits, Gates: make([]server.GateSpec, len(c.Gates))}
	for i, g := range c.Gates {
		cs.Gates[i] = server.GateSpec{Op: g.Kind.String(), Qubits: g.Qubits, Theta: g.Theta}
	}
	return cs
}

// fig9Rows is one request per Fig 9 row: an expt.Suite() circuit on its
// grid under the five Table I strategies, with the row's natural placement.
func fig9Rows() []request {
	var rows []request
	for _, b := range expt.Suite() {
		dev := topology.SquareGrid(b.Qubits)
		rows = append(rows, encodeRequest(b.Name, b.Circuit(dev), b.Qubits, b.Placement, core.Strategies()))
	}
	return rows
}

// uniqueClass is one (family, grid size, XEB cycles) cell of the
// unique-cold mix.
type uniqueClass struct {
	family    string
	n, cycles int
}

// uniqueClasses is the unique-cold mix: BV, QAOA, QGAN and XEB at 5, 10
// and 15 cycles, each on the 9-, 16- and 25-qubit grids. Every round of
// the stream carries each class once, in a seeded order, so seeds differ
// in circuits and order but not in the mix.
var uniqueClasses = func() []uniqueClass {
	var cs []uniqueClass
	for _, n := range []int{9, 16, 25} {
		cs = append(cs, uniqueClass{"bv", n, 0}, uniqueClass{"qaoa", n, 0}, uniqueClass{"qgan", n, 0})
		for _, p := range []int{5, 10, 15} {
			cs = append(cs, uniqueClass{"xeb", n, p})
		}
	}
	return cs
}()

// uniquePrimeSeed seeds the set-up circuits of unique-cold. The timed
// stream never carries them: its generator starts with their signatures
// marked as seen.
const uniquePrimeSeed = -1

// uniquePrimes is unique-cold's set-up: one QGAN request per grid size.
func uniquePrimes() []request {
	var primes []request
	for _, n := range []int{9, 16, 25} {
		primes = append(primes, uniqueRequest(uniqueClass{"qgan", n, 0}, uniquePrimeSeed))
	}
	return primes
}

// uniqueRequest builds one Table II circuit of class c drawn from its
// generator's seed.
func uniqueRequest(c uniqueClass, seed int64) request {
	var circ *circuit.Circuit
	var placement core.Placement
	label := fmt.Sprintf("%s%d-%d", c.family, c.n, seed)
	switch c.family {
	case "bv":
		circ = bench.BV(c.n, seed)
	case "qaoa":
		circ = bench.QAOA(c.n, seed)
	case "qgan":
		circ = bench.QGAN(c.n, 0, seed)
		placement = core.PlaceSnake
	case "xeb":
		circ = bench.XEB(topology.SquareGrid(c.n), c.cycles, seed)
		label = fmt.Sprintf("xeb%d.%d-%d", c.n, c.cycles, seed)
	default:
		panic("unknown family " + c.family)
	}
	return encodeRequest(label, circ, c.n, placement, core.Strategies())
}

// uniqueStream draws fresh Table II circuits round by round, redrawing any
// whose circuit signature an earlier request (or set-up) already carried.
type uniqueStream struct {
	rng   *rand.Rand
	seen  map[string]bool
	round []int // class indices left in the current round
}

func newUniqueStream(seed int64, primes []request) *uniqueStream {
	u := &uniqueStream{rng: rand.New(rand.NewSource(seed)), seen: make(map[string]bool)}
	for _, p := range primes {
		u.seen[bodySignature(p.body)] = true
	}
	return u
}

func (u *uniqueStream) next() request {
	if len(u.round) == 0 {
		u.round = u.rng.Perm(len(uniqueClasses))
	}
	c := uniqueClasses[u.round[0]]
	u.round = u.round[1:]
	for {
		r := uniqueRequest(c, u.rng.Int63())
		sig := bodySignature(r.body)
		if !u.seen[sig] {
			u.seen[sig] = true
			return r
		}
	}
}

// bodySignature is the circuit signature of a request's first job as the
// server decodes it (all jobs of a generated request carry one circuit).
func bodySignature(body []byte) string {
	var req server.CompileRequest
	if err := json.Unmarshal(body, &req); err != nil {
		panic(err)
	}
	circ, err := decodeCircuit(req.Jobs[0], nil, -1, -1)
	if err != nil {
		panic(err)
	}
	return circ.Signature()
}

// deepPrimeSeed is the deep100 set-up circuit's seed: the fixed seed of
// internal/bench's largeCircuit.
const deepPrimeSeed = 7

// deepRequest is one 6000-gate random circuit on the 10×10 grid under
// ColorDynamic, following internal/bench's largeCircuit recipe: H, RZ or a
// CNOT on a random coupler, so routing inserts no SWAPs and almost every
// slice has a distinct scattered active set.
func deepRequest(seed int64) request {
	dev := topology.Grid(10, 10)
	rng := rand.New(rand.NewSource(seed))
	edges := dev.Coupling.Edges()
	n := dev.Qubits
	c := circuit.New(n)
	for i := 0; i < 6000; i++ {
		switch rng.Intn(4) {
		case 0:
			c.H(rng.Intn(n))
		case 1:
			c.RZ(rng.Intn(n), rng.Float64())
		default:
			e := edges[rng.Intn(len(edges))]
			c.CNOT(e.U, e.V)
		}
	}
	return encodeRequest(fmt.Sprintf("deep-%d", seed), c, n, "", []string{core.ColorDynamic})
}
