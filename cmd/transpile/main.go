// Command transpile runs one workload through the full co-design pipeline
// on a machine and reports the paper's metrics — the downstream-user tool
// for exploring machine/workload pairs:
//
//	transpile -workload QFT -n 12 -machine tree20
//	transpile -workload QAOAVanilla -n 16 -machine corral12 -print
//	transpile -workload GHZ -n 10 -machine "corral:posts=11,strides=1+4,basis=sqrtiswap"
//	transpile -list
//
// -machine accepts either a catalog shorthand (see -list) or a declarative
// architecture spec ("family:key=value,..."; see package arch and the
// README) — specs are recognized by their ':' head, so catalog names never
// collide with the grammar.
package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"strings"

	"repro"
	"repro/internal/cli"
	"repro/internal/qasm"
	"repro/internal/transpile"
)

var machines = map[string]func() repro.Machine{
	"heavyhex20":  repro.HeavyHex20CX,
	"square16":    repro.SquareLattice16SYC,
	"tree20":      repro.Tree20SqrtISwap,
	"treerr20":    repro.TreeRR20SqrtISwap,
	"corral11":    repro.Corral11SqrtISwap,
	"corral12":    repro.Corral12SqrtISwap,
	"hypercube16": repro.Hypercube16SqrtISwap,
	"heavyhex84":  repro.HeavyHex84CX,
	"square84":    repro.SquareLattice84SYC,
	"tree84":      repro.Tree84SqrtISwap,
	"treerr84":    repro.TreeRR84SqrtISwap,
	"hypercube84": repro.Hypercube84SqrtISwap,
}

func main() {
	cli.Exit("transpile", run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := cli.NewFlagSet("transpile", stderr)
	workload := fs.String("workload", "QuantumVolume", "benchmark name (see -list)")
	n := fs.Int("n", 12, "circuit width in qubits")
	machine := fs.String("machine", "tree20", "machine: a catalog name (see -list) or an architecture spec (family:key=value,...)")
	seed := fs.Int64("seed", 2022, "seed for circuit generation and routing")
	print := fs.Bool("print", false, "print the translated physical circuit")
	emitQASM := fs.Bool("qasm", false, "emit the routed circuit as OpenQASM 2.0 (exact gates)")
	list := fs.Bool("list", false, "list machines and workloads")
	if err := fs.Parse(args); err != nil {
		return cli.WrapParse(err)
	}
	if fs.NArg() > 0 {
		return cli.Usagef("unexpected arguments %q (transpile takes flags only)", fs.Args())
	}
	if *list {
		var names []string
		for k := range machines {
			names = append(names, k)
		}
		sort.Strings(names)
		fmt.Fprintln(stdout, "machines: ", names)
		fmt.Fprintln(stdout, "workloads:", repro.WorkloadNames())
		return nil
	}
	m, err := resolveMachine(*machine)
	if err != nil {
		return err
	}
	if *print && *emitQASM {
		return cli.Usagef("-print and -qasm are mutually exclusive; choose one")
	}
	if *n < 2 {
		return cli.Usagef("-n must be ≥ 2, got %d", *n)
	}
	rng := rand.New(rand.NewSource(*seed))
	c, err := repro.GenerateWorkload(*workload, *n, rng)
	if err != nil {
		return cli.Usagef("bad workload: %v", err)
	}
	opt := repro.DefaultOptions()
	opt.Seed = *seed
	tr, err := m.TranspileContext(context.Background(), c, opt)
	if err != nil {
		return err
	}
	if *emitQASM {
		src, err := qasm.Export(tr.Routed, qasm.Options{ExpandNonStandard: true})
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, src)
		return nil
	}
	met := tr.Metrics
	fmt.Fprintf(stdout, "%s(%d) on %s (%d qubits, basis %v)\n", *workload, *n, m.Name, m.Graph.N(), m.Basis)
	fmt.Fprintf(stdout, "  2Q gates before routing:  %d\n", met.PreRouting2Q)
	fmt.Fprintf(stdout, "  SWAPs (induced/total):    %d / %d\n", met.InducedSwaps, met.TotalSwaps)
	fmt.Fprintf(stdout, "  critical-path SWAPs:      %d\n", met.CriticalSwaps)
	fmt.Fprintf(stdout, "  total basis 2Q gates:     %d\n", met.Total2Q)
	fmt.Fprintf(stdout, "  critical-path 2Q gates:   %d\n", met.Critical2Q)
	fmt.Fprintf(stdout, "  pulse duration:           %.1f\n", met.PulseDuration)
	if *print {
		translated, err := transpile.TranslateToBasis(tr.Routed, m.Basis)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, translated.String())
	}
	return nil
}

// resolveMachine accepts either a catalog shorthand (tree20) or a full
// architecture spec (corral:posts=11,strides=1+4): specs are distinguished
// by their ':' family head, so catalog names never shadow the grammar.
func resolveMachine(name string) (repro.Machine, error) {
	if mk, ok := machines[name]; ok {
		return mk(), nil
	}
	if strings.Contains(name, ":") {
		m, err := repro.MachineFromSpec(name)
		if err != nil {
			return repro.Machine{}, cli.Usagef("bad machine spec %q: %v", name, err)
		}
		return m, nil
	}
	return repro.Machine{}, cli.Usagef("unknown machine %q; try -list, or pass an architecture spec (family:key=value,...)", name)
}
