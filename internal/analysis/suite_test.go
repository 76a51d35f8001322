package analysis_test

import (
	"path/filepath"
	"testing"

	"netpart/internal/analysis"
	"netpart/internal/analysis/antest"
)

func fixture(name string) string {
	return filepath.Join("testdata", "src", name)
}

func TestDeterminism(t *testing.T) {
	antest.Run(t, []*analysis.Analyzer{analysis.Determinism}, fixture("determinism"))
}

// TestHotPath pins allocfree's direct-site rules: each allocating
// construct in a hot body is reported once, guarded slow paths are not.
func TestHotPath(t *testing.T) {
	antest.Run(t, []*analysis.Analyzer{analysis.AllocFree}, fixture("hotpath"))
}

// TestAllocFree pins allocfree's interprocedural half: call-derived sites
// with provenance chains, recursion, interface dispatch, and waivers at
// the origin.
func TestAllocFree(t *testing.T) {
	antest.Run(t, []*analysis.Analyzer{analysis.AllocFree}, fixture("allocfree"))
}

func TestMsgProto(t *testing.T) {
	antest.Run(t, []*analysis.Analyzer{analysis.MsgProto}, fixture("msgproto"))
}

// TestPoolLifetime pins poolflow's accessor rule: direct sync.Pool
// Get/Put belongs inside get*/put* accessors.
func TestPoolLifetime(t *testing.T) {
	antest.Run(t, []*analysis.Analyzer{analysis.PoolFlow}, fixture("poollifetime"))
}

func TestPoolFlow(t *testing.T) {
	antest.Run(t, []*analysis.Analyzer{analysis.PoolFlow}, fixture("poolflow"))
}

func TestConcSafety(t *testing.T) {
	antest.Run(t, []*analysis.Analyzer{analysis.ConcSafety}, fixture("concsafety"))
}

func TestUnits(t *testing.T) {
	antest.Run(t, []*analysis.Analyzer{analysis.Units}, fixture("units"))
}

func TestObsNil(t *testing.T) {
	antest.Run(t, []*analysis.Analyzer{analysis.ObsNil}, fixture("obsnil"))
}

func TestErrCheck(t *testing.T) {
	antest.Run(t, []*analysis.Analyzer{analysis.ErrCheck}, fixture("errcheck"))
}

// TestSuppression runs the full suite so the //nolint:netpart machinery is
// exercised exactly as cmd/netpartlint runs it: justified suppressions
// silence findings, scoped suppressions only silence their analyzer, and a
// missing reason or an unknown scope is a finding in its own right.
func TestSuppression(t *testing.T) {
	antest.Run(t, analysis.Analyzers(), fixture("nolint"))
}
