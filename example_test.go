package statsize_test

import (
	"context"
	"fmt"
	"strings"

	"statsize"
)

// The whole pipeline is deterministic (seeded generation, fixed grids),
// so these examples assert exact output.

func ExampleEngine_Benchmark() {
	eng, err := statsize.New()
	if err != nil {
		panic(err)
	}
	d, err := eng.Benchmark("c17")
	if err != nil {
		panic(err)
	}
	fmt.Println(d.NL)
	// Output: Netlist{c17: 6 gates, 11 nets, 5 PI, 2 PO}
}

func ExampleEngine_Optimize() {
	eng, err := statsize.New()
	if err != nil {
		panic(err)
	}
	d, err := eng.Benchmark("c17")
	if err != nil {
		panic(err)
	}
	res, err := eng.Optimize(context.Background(), d, "accelerated", statsize.MaxIterations(3))
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Iterations, res.FinalObjective < res.InitialObjective)
	// Output: 3 true
}

func ExampleEngine_LoadBench() {
	eng, err := statsize.New()
	if err != nil {
		panic(err)
	}
	src := "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = NAND(a, b)\n"
	d, err := eng.LoadBench(strings.NewReader(src), "tiny")
	if err != nil {
		panic(err)
	}
	fmt.Println(d.NL.NumGates(), d.NL.NumPIs(), d.NL.NumPOs())
	// Output: 1 2 1
}

func ExamplePathHistogram() {
	eng, err := statsize.New()
	if err != nil {
		panic(err)
	}
	d, err := eng.Benchmark("c17")
	if err != nil {
		panic(err)
	}
	h := statsize.PathHistogram(d, 0.01)
	fmt.Printf("%.0f source-to-sink paths\n", h.NumPaths())
	// Output: 11 source-to-sink paths
}

func ExampleTopPaths() {
	eng, err := statsize.New()
	if err != nil {
		panic(err)
	}
	d, err := eng.Benchmark("c17")
	if err != nil {
		panic(err)
	}
	paths := statsize.TopPaths(d, 2)
	fmt.Println(len(paths), paths[0].Delay >= paths[1].Delay)
	// Output: 2 true
}
