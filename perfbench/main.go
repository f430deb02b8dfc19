// Command perfbench is the repository benchmark. It drives the solver from
// outside — repro.Engine, the serve HTTP handler and the public entry
// points of the layer packages — and checks every result it times.
//
//	perfbench --workload engine-sparsify --seed 1 --seconds 20 --trace 0
//
// A run generates its inputs from --seed, sets up (median of setupReps
// set-ups), measures for --seconds, verifies every output, prints a table
// of every metric with its unit, writes a result file with the host
// fingerprint under --out, and prints as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end ones; with --trace 1 the run attaches a span-recording
// observer, probes every layer and reports the per-layer metrics instead.
// --workload all runs every workload in its own child process.
//
// The exit code is 0 when every operation succeeded, 1 when any operation
// failed or produced a wrong result (the JSON line is still printed), and 2
// when the run could not start.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload name ("+strings.Join(workloadNames(), " | ")+" | all)")
	seed := fs.Uint64("seed", 1, "workload seed: every input is generated from it")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := fs.String("out", ".bench_build/results", "directory for result and trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: --seconds must be positive\n")
		return 2
	}
	if *workload == "all" {
		return runAll(args, stdout, stderr)
	}
	sp, ok := lookupWorkload(*workload)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s or all)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg := runConfig{
		seed:    *seed,
		timed:   time.Duration(*seconds * float64(time.Second)),
		traced:  *trace == 1,
		outDir:  *out,
		clients: defaultClients(),
		probe:   serveProbe,
	}
	rep, err := runWorkload(context.Background(), sp, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", sp.name, err)
		return 2
	}
	printTable(stdout, rep)
	if path, err := rep.save(cfg.outDir); err != nil {
		fmt.Fprintf(stderr, "perfbench: writing result file: %v\n", err)
	} else {
		fmt.Fprintf(stdout, "result file: %s\n", path)
	}
	line, err := json.Marshal(rep.summary())
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding summary: %v\n", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if rep.Failed > 0 {
		return 1
	}
	return 0
}

// runAll runs each workload in a child process of this binary (so each
// reports its own peak RSS), relays the children's output, and prints one
// combined summary line whose metric names are prefixed by the workload.
func runAll(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	all := summary{Correct: true, Metrics: map[string]jsonMetric{}}
	code := 0
	for _, name := range workloadNames() {
		childArgs := append(withoutFlag(args, "workload"), "--workload", name)
		cmd := exec.Command(self, childArgs...)
		cmd.Stderr = stderr
		pipe, err := cmd.StdoutPipe()
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 2
		}
		if err := cmd.Start(); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 2
		}
		var last string
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			last = sc.Text()
			fmt.Fprintln(stdout, last)
		}
		werr := cmd.Wait()
		var s summary
		if err := json.Unmarshal([]byte(last), &s); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s printed no summary (%v)\n", name, werr)
			return 2
		}
		if werr != nil {
			code = 1
		}
		all.Correct = all.Correct && s.Correct
		all.Attempted += s.Attempted
		all.Failed += s.Failed
		for k, v := range s.Metrics {
			all.Metrics[name+"."+k] = v
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding summary: %v\n", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	return code
}

// withoutFlag drops every "--name value" / "--name=value" pair from args.
func withoutFlag(args []string, name string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := strings.TrimLeft(args[i], "-")
		if a == name {
			i++ // skip the value
			continue
		}
		if strings.HasPrefix(a, name+"=") {
			continue
		}
		out = append(out, args[i])
	}
	return out
}

// summary is the benchmark's last output line.
type summary struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary keeps the metrics the benchmark contract names for this mode: the
// end-to-end list untraced, the per-layer list traced.
func (r *report) summary() summary {
	names := endToEndJSON
	if r.Traced {
		names = perLayerJSON
	}
	s := summary{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]jsonMetric{}}
	for _, name := range names {
		m, ok := r.metric(name)
		if !ok || m.NA {
			// A contract metric must be measured on every workload; a
			// missing one is a benchmark bug, surfaced as a failed run.
			s.Correct = false
			continue
		}
		s.Metrics[name] = jsonMetric{Value: m.Value, Unit: m.Unit}
	}
	return s
}

// save writes the full report — every metric including the not-applicable
// ones, the host fingerprint and, when traced, the span self times — and
// the raw spans of a traced run.
func (r *report) save(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	mode := "e2e"
	if r.Traced {
		mode = "trace"
	}
	base := fmt.Sprintf("%s-seed%d-%s", r.Workload, r.Seed, mode)
	if r.spans != nil {
		if err := writeJSON(filepath.Join(dir, base+"-spans.json"), r.spans.spans); err != nil {
			return "", err
		}
	}
	path := filepath.Join(dir, base+".json")
	return path, writeJSON(path, r)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func printTable(w io.Writer, r *report) {
	fmt.Fprintf(w, "workload %s  seed %d  traced %v  timed %.1fs\n", r.Workload, r.Seed, r.Traced, r.TimedSeconds)
	fmt.Fprintf(w, "host: %s\n", r.Host)
	fmt.Fprintf(w, "attempted %d  failed %d\n", r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  failure: %s\n", f)
	}
	section := func(title string, ms []metric) {
		if len(ms) == 0 {
			return
		}
		fmt.Fprintf(w, "%s:\n", title)
		for _, m := range ms {
			if m.NA {
				fmt.Fprintf(w, "  %-32s %14s %s\n", m.Name, "n/a", m.Unit)
			} else {
				fmt.Fprintf(w, "  %-32s %14.4f %s\n", m.Name, m.Value, m.Unit)
			}
		}
	}
	section("end-to-end", r.EndToEnd)
	section("per-layer", r.PerLayer)
	if len(r.SelfMS) > 0 {
		fmt.Fprintf(w, "span self time (ms, summed over the run):\n")
		for _, s := range r.SelfMS {
			fmt.Fprintf(w, "  %-32s %14.3f  (%d spans)\n", s.Name, s.MS, s.Count)
		}
	}
}
