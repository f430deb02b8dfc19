// Command experiments regenerates the reproduction tables and figures
// registered in internal/experiments (T1..T9, F1, F2, ablations A1..A5);
// each table's notes state the paper claim it checks.
//
// Usage:
//
//	experiments                  # run everything at full scale
//	experiments -quick           # small grids (seconds)
//	experiments -run T1,T5,F2    # a subset
//	experiments -csv out/        # also write one CSV per table
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/experiments"
)

func main() {
	var (
		runList = flag.String("run", "all", "comma-separated experiment ids, or 'all'")
		quick   = flag.Bool("quick", false, "small grids (seconds instead of minutes)")
		seed    = flag.Uint64("seed", 1, "workload generator seed")
		csvDir  = flag.String("csv", "", "directory to write per-table CSV files")
	)
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("experiments: ")

	cfg := experiments.Config{Quick: *quick, Seed: *seed}
	ids := experiments.IDs()
	if *runList != "all" {
		ids = strings.Split(*runList, ",")
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			log.Fatal(err)
		}
	}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		tables, err := experiments.Run(id, cfg)
		if err != nil {
			log.Fatal(err)
		}
		for _, t := range tables {
			if err := t.Render(os.Stdout); err != nil {
				log.Fatal(err)
			}
			if *csvDir != "" {
				path := filepath.Join(*csvDir, t.ID+".csv")
				f, err := os.Create(path)
				if err != nil {
					log.Fatal(err)
				}
				if err := t.CSV(f); err != nil {
					f.Close()
					log.Fatal(err)
				}
				if err := f.Close(); err != nil {
					log.Fatal(err)
				}
				fmt.Fprintf(os.Stderr, "wrote %s\n", path)
			}
		}
	}
}
