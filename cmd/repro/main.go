// Command repro regenerates every table and figure of the FACADE paper's
// evaluation (§4) on the reproduction stack: the FJ VM with its
// generational collector for program P, and the FACADE transform plus
// off-heap page runtime for program P'. Sizes are scaled to the
// interpreter (see DESIGN.md) and adjustable by flags.
//
// Usage:
//
//	repro table2   [flags]   GraphChi PR/CC across heap budgets
//	repro fig4a    [flags]   GraphChi throughput vs graph size
//	repro table3   [flags]   Hyracks ES/WC across dataset sizes (with OME)
//	repro fig4bc   [flags]   Hyracks peak memory for ES and WC
//	repro gps      [flags]   GPS PR / k-means / random walk (§4.3)
//	repro objcount [flags]   §4.1 object-bound census
//	repro speed    [flags]   transform compilation speed (§4.1-4.3)
//	repro all                everything at default (small) scale
//
// Daemon mode (docs/SERVER.md):
//
//	repro serve    [flags]   run the multi-tenant job daemon in the foreground
//	repro submit   [flags]   submit FJ sources to the daemon (auto-starts it)
//	repro wait     [flags]   wait for submitted jobs and print their output
//	repro status   [flags]   print daemon status (jobs, budgets, warm pool)
//	repro load     [flags]   deterministic load harness (same seed, same per-job results)
//	repro shutdown [flags]   stop the daemon (-drain for a graceful stop)
package main

import (
	"fmt"
	"os"
)

var commands = map[string]func([]string) error{
	"table2":   table2Cmd,
	"fig4a":    fig4aCmd,
	"table3":   table3Cmd,
	"fig4bc":   fig4bcCmd,
	"gps":      gpsCmd,
	"objcount": objcountCmd,
	"speed":    speedCmd,
	"serve":    serveCmd,
	"submit":   submitCmd,
	"wait":     waitCmd,
	"status":   statusCmd,
	"load":     loadCmd,
	"shutdown": shutdownCmd,
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	name := os.Args[1]
	if name == "all" {
		for _, n := range []string{"speed", "objcount", "table2", "fig4a", "table3", "fig4bc", "gps"} {
			fmt.Printf("\n== %s ==\n", n)
			if err := commands[n](nil); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", n, err)
				os.Exit(1)
			}
		}
		return
	}
	cmd, ok := commands[name]
	if !ok {
		usage()
		os.Exit(2)
	}
	if err := cmd(os.Args[2:]); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: repro {table2|fig4a|table3|fig4bc|gps|objcount|speed|serve|submit|wait|status|load|shutdown|all} [flags]")
}
