// Package experiments implements the reproduction suite, indexed by the
// registry below: the paper has no empirical tables or figures (it is a
// theory paper), so each experiment measures one of its theorem-level
// claims and renders a table (T1..T9) or figure (F1, F2) via
// internal/tablefmt, whose notes state the paper claim next to the
// measured shape.
package experiments

import (
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/tablefmt"
)

// Config scales the experiment suite.
type Config struct {
	// Quick shrinks the size grids so the full suite runs in seconds
	// (used by `go test` and the benchmarks); the default full grids take
	// a few minutes.
	Quick bool
	// Seed feeds the workload generators (never the deterministic
	// algorithms).
	Seed uint64
}

// DefaultConfig returns the full-size configuration with the canonical
// workload seed.
func DefaultConfig() Config { return Config{Seed: 1} }

// Runner produces one experiment's tables.
type Runner func(Config) []*tablefmt.Table

// registry maps experiment ids to runners; ids render in sorted order.
var registry = map[string]Runner{
	"T1": RunT1,
	"T2": RunT2,
	"T3": RunT3,
	"T4": RunT4,
	"T5": RunT5,
	"T6": RunT6,
	"T7": RunT7,
	"T8": RunT8,
	"T9": RunT9,
	"F1": RunF1,
	"F2": RunF2,
}

// IDs returns all experiment ids in render order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run executes one experiment by id.
func Run(id string, cfg Config) ([]*tablefmt.Table, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown id %q (have %v)", id, IDs())
	}
	return r(cfg), nil
}

// RunAll executes every experiment and writes the tables to w.
func RunAll(cfg Config, w io.Writer) error {
	for _, id := range IDs() {
		tables, err := Run(id, cfg)
		if err != nil {
			return err
		}
		for _, t := range tables {
			if err := t.Render(w); err != nil {
				return err
			}
		}
	}
	return nil
}

// log2 returns log base 2 as float64 (guarding the x <= 1 corner so ratios
// against it stay finite).
func log2(x float64) float64 {
	if x <= 1 {
		return 1
	}
	return math.Log2(x)
}

// nGrid returns the node-count grid for the config.
func (c Config) nGrid() []int {
	if c.Quick {
		return []int{1 << 10, 1 << 11, 1 << 12}
	}
	return []int{1 << 10, 1 << 11, 1 << 12, 1 << 13, 1 << 14}
}

// degGrid returns the Δ grid for the low-degree experiments.
func (c Config) degGrid() []int {
	if c.Quick {
		return []int{4, 8, 16}
	}
	return []int{4, 8, 16, 32}
}
