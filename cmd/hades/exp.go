package main

import (
	"fmt"
	"io"
	"strings"

	"hades/internal/expkit"
)

// expCmd regenerates the tables and figures of the HADES reproduction
// (see DESIGN.md §4 for the experiment index): everything at full scale
// by default, one experiment with -run, reduced sample counts with
// -quick.
func expCmd(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("exp", stderr)
	var (
		id    = fs.String("run", "all", "experiment ID to run (or 'all')")
		quick = fs.Bool("quick", false, "reduced sample counts")
		seed  = fs.Int64("seed", 1, "base random seed")
		list  = fs.Bool("list", false, "list experiment IDs and exit")
	)
	if fs.Parse(args) != nil {
		return exitUsage
	}
	if *list {
		fmt.Fprintln(stdout, strings.Join(expkit.IDs(), "\n"))
		return exitOK
	}
	opts := expkit.Options{Quick: *quick, Seed: *seed}
	if *id == "all" {
		for _, tbl := range expkit.RunAll(opts) {
			fmt.Fprintln(stdout, tbl)
		}
		return exitOK
	}
	tbl, err := expkit.Run(*id, opts)
	if err != nil {
		return cannot(stderr, "exp", err)
	}
	fmt.Fprintln(stdout, tbl)
	return exitOK
}
