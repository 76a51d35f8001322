// netpartlint is the project's static-analysis gate: it runs the
// internal/analysis suite — determinism, allocfree, msgproto, poolflow,
// concsafety, units, obsnil, errcheck — over the module and fails the
// build on any violation. Each analyzer owns one contract, so no finding
// is reported twice. The analyzers machine-check the invariants the
// partitioner's correctness rests on (see DESIGN.md §7 and the README's
// "Static analysis" section);
// CI runs `go run ./cmd/netpartlint ./...` as a hard gate.
//
// Usage:
//
//	netpartlint [-list] [-v] [-json] [-analyzers a,b] [patterns ...]
//
// Patterns are go-tool style ("./...", "./internal/core"); the default is
// "./..." from the enclosing module root. -analyzers restricts the run to
// a comma-separated subset of the suite (unknown names are a usage
// error). With -json the findings are emitted as NDJSON (one object per
// line: file, line, analyzer, message, suppressed) including suppressed
// ones, so tooling can audit what was waived; suppressed entries never
// affect the exit status. NDJSON output is globally sorted by (file,
// line, analyzer) across all checked packages, so it is byte-stable for
// golden tests and CI diffs. Exit status is 1 when any diagnostic
// survives suppression, 2 on usage or load errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"netpart/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("netpartlint", flag.ExitOnError)
	list := fs.Bool("list", false, "list the analyzers and exit")
	verbose := fs.Bool("v", false, "report the packages checked")
	asJSON := fs.Bool("json", false, "emit findings as NDJSON, including suppressed ones")
	only := fs.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	analyzers := analysis.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *only != "" {
		analyzers = selectAnalyzers(analyzers, *only)
		if analyzers == nil {
			names := make([]string, len(analysis.Analyzers()))
			for i, a := range analysis.Analyzers() {
				names[i] = a.Name
			}
			fmt.Fprintf(os.Stderr, "netpartlint: -analyzers %q names an unknown analyzer; valid: %s\n",
				*only, strings.Join(names, ", "))
			return 2
		}
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "netpartlint:", err)
		return 2
	}
	root, modPath, err := analysis.FindModuleRoot(cwd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "netpartlint:", err)
		return 2
	}
	loader := analysis.NewLoader(root, modPath)
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "netpartlint:", err)
		return 2
	}
	bad := 0
	var jsonDiags []analysis.Diagnostic
	for _, pkg := range pkgs {
		for _, e := range pkg.TypeErrors {
			fmt.Fprintf(os.Stderr, "netpartlint: %s: type error: %v\n", pkg.Path, e)
			bad++
		}
		check := analysis.Check
		if *asJSON {
			check = analysis.CheckAll
		}
		diags, err := check(pkg, analyzers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "netpartlint:", err)
			return 2
		}
		if *verbose {
			fmt.Fprintf(os.Stderr, "netpartlint: %s: %d findings\n", pkg.Path, len(diags))
		}
		if *asJSON {
			jsonDiags = append(jsonDiags, diags...)
			continue
		}
		for _, d := range diags {
			fmt.Println(d)
			bad++
		}
	}
	if *asJSON {
		n, err := writeNDJSON(os.Stdout, jsonDiags)
		if err != nil {
			fmt.Fprintln(os.Stderr, "netpartlint:", err)
			return 2
		}
		bad += n
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "netpartlint: %d violations\n", bad)
		return 1
	}
	return 0
}

// selectAnalyzers resolves a comma-separated name list against the suite,
// preserving suite order; nil when any name is unknown.
func selectAnalyzers(all []*analysis.Analyzer, names string) []*analysis.Analyzer {
	want := map[string]bool{}
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		want[name] = true
	}
	var out []*analysis.Analyzer
	for _, a := range all {
		if want[a.Name] {
			out = append(out, a)
			delete(want, a.Name)
		}
	}
	if len(want) > 0 || len(out) == 0 {
		return nil
	}
	return out
}

// jsonDiag is the NDJSON wire form of one finding. Suppressed findings are
// included (that is the point of -json: auditing what was waived) but do
// not count toward the exit status.
type jsonDiag struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Analyzer   string `json:"analyzer"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
}

// writeNDJSON emits one JSON object per diagnostic — globally sorted by
// (file, line, analyzer, column, message) so the stream is byte-stable
// regardless of package load order — and returns how many of them are
// live (unsuppressed) violations.
func writeNDJSON(w io.Writer, diags []analysis.Diagnostic) (int, error) {
	sort.SliceStable(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
	enc := json.NewEncoder(w)
	live := 0
	for _, d := range diags {
		if !d.Suppressed {
			live++
		}
		jd := jsonDiag{
			File:       d.Pos.Filename,
			Line:       d.Pos.Line,
			Analyzer:   d.Analyzer,
			Message:    d.Message,
			Suppressed: d.Suppressed,
		}
		if err := enc.Encode(jd); err != nil {
			return live, err
		}
	}
	return live, nil
}
