// Vssbench regenerates the tables and figures of the paper's evaluation
// (Section 6). Each experiment prints rows in the shape the paper
// reports; docs/ARCHITECTURE.md maps each paper section to its code.
// Single draws that gate nothing: benchmark/ is what changes answer to.
//
// Usage:
//
//	vssbench -list
//	vssbench -exp fig10
//	vssbench -exp all
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/bench"
)

func main() {
	exp := flag.String("exp", "", "experiment to run (e.g. table1, fig10) or 'all'")
	list := flag.Bool("list", false, "list available experiments")
	flag.Parse()

	if *list || *exp == "" {
		fmt.Println("available experiments:")
		for _, e := range bench.Experiments() {
			fmt.Printf("  %-8s %s\n", e.Name, e.Title)
		}
		if *exp == "" {
			os.Exit(2)
		}
		return
	}

	run := func(e bench.Experiment) {
		start := time.Now()
		if err := e.Run(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.Name, err)
			os.Exit(1)
		}
		fmt.Printf("[%s completed in %.1fs]\n", e.Name, time.Since(start).Seconds())
	}

	if *exp == "all" {
		for _, e := range bench.Experiments() {
			run(e)
		}
		return
	}
	e, ok := bench.ByName(*exp)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", *exp)
		os.Exit(2)
	}
	run(e)
}
