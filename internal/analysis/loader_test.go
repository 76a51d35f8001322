package analysis_test

import (
	"strings"
	"sync"
	"testing"

	"netpart/internal/analysis"
)

// module is the whole module loaded once per test binary: typechecking
// every package from source and solving the call graph dominates this
// package's test time, and every whole-tree test reads the same result.
var module struct {
	once sync.Once
	pkgs []*analysis.Package
	ip   *analysis.Interproc
	err  error
}

// loadModule returns the shared whole-module load and its call graph,
// loading it on first use. Under -short it skips the calling test.
func loadModule(t *testing.T) ([]*analysis.Package, *analysis.Interproc) {
	t.Helper()
	if testing.Short() {
		t.Skip("typechecks the whole module from source")
	}
	module.once.Do(func() {
		root, modPath, err := analysis.FindModuleRoot(".")
		if err != nil {
			module.err = err
			return
		}
		l := analysis.NewLoader(root, modPath)
		if module.pkgs, module.err = l.Load("./..."); module.err == nil {
			module.ip = l.Interproc()
		}
	})
	if module.err != nil {
		t.Fatal(module.err)
	}
	return module.pkgs, module.ip
}

// TestModuleLoadsAndIsLintClean loads the whole module through the
// source-level loader and asserts two invariants at once: every package
// typechecks (the loader is trustworthy), and the full analyzer suite
// reports zero violations on the tree as committed — the same gate
// cmd/netpartlint enforces in CI, here kept under plain `go test`. The
// suite includes allocfree, so every //netpart:hotpath function is proven
// allocation-free through its whole call tree; the annotation floor keeps
// that proof honest — if the annotations were ever stripped, allocfree
// would pass vacuously and this fails instead.
func TestModuleLoadsAndIsLintClean(t *testing.T) {
	pkgs, _ := loadModule(t)
	if len(pkgs) < 25 {
		t.Fatalf("loaded %d packages, expected the full module (>= 25)", len(pkgs))
	}
	seen := map[string]bool{}
	for _, pkg := range pkgs {
		seen[pkg.Path] = true
		for _, terr := range pkg.TypeErrors {
			t.Errorf("%s: typecheck: %v", pkg.Path, terr)
		}
	}
	for _, must := range []string{"netpart", "netpart/internal/core", "netpart/internal/obs", "netpart/internal/mmps"} {
		if !seen[must] {
			t.Errorf("package %s missing from ./... expansion", must)
		}
	}
	if hot := hotpathAnnotations(pkgs); hot < 5 {
		t.Errorf("found %d //netpart:hotpath annotations module-wide, want >= 5 (allocfree would be vacuous)", hot)
	}
	for _, pkg := range pkgs {
		diags, err := analysis.Check(pkg, analysis.Analyzers())
		if err != nil {
			t.Fatalf("%s: %v", pkg.Path, err)
		}
		for _, d := range diags {
			t.Errorf("committed tree must be lint-clean: %s", d)
		}
	}
}

// TestModuleIsAllocfreeClean runs the interprocedural proofs alone over
// the shared module load: every //netpart:hotpath function must prove
// allocation-free through its entire call tree, and the wire/lockstep
// protocols must be symmetric. It is the same gate as
// `netpartlint -analyzers allocfree,msgproto`, so a finding here names
// the proof that failed without the rest of the suite around it.
func TestModuleIsAllocfreeClean(t *testing.T) {
	pkgs, _ := loadModule(t)
	if hot := hotpathAnnotations(pkgs); hot < 5 {
		t.Errorf("found %d //netpart:hotpath annotations module-wide, want >= 5 (gate would be vacuous)", hot)
	}
	subset := []*analysis.Analyzer{analysis.AllocFree, analysis.MsgProto}
	for _, pkg := range pkgs {
		diags, err := analysis.Check(pkg, subset)
		if err != nil {
			t.Fatalf("%s: %v", pkg.Path, err)
		}
		for _, d := range diags {
			t.Errorf("hot paths must stay provably allocation-free: %s", d)
		}
	}
}

// hotpathAnnotations counts the //netpart:hotpath comments in pkgs.
func hotpathAnnotations(pkgs []*analysis.Package) int {
	hot := 0
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if strings.HasPrefix(c.Text, "//netpart:hotpath") {
						hot++
					}
				}
			}
		}
	}
	return hot
}
