package analysis_test

import (
	"testing"

	"cqp/internal/analysis"
	"cqp/internal/analysis/analysistest"
)

// Each analyzer runs over its fixture package in testdata/src/<name>;
// the fixtures carry positive cases (lines with `// want` expectations)
// and negative cases (the sanctioned idioms, which must stay silent).

func TestDeterminism(t *testing.T) {
	analysistest.Run(t, analysis.Determinism, "determinism")
}

func TestMapOrder(t *testing.T) {
	analysistest.Run(t, analysis.MapOrder, "maporder")
}

func TestLockSend(t *testing.T) {
	analysistest.Run(t, analysis.LockSend, "locksend")
}

func TestErrAdrift(t *testing.T) {
	analysistest.Run(t, analysis.ErrAdrift, "erradrift")
}

func TestValidateFirst(t *testing.T) {
	analysistest.Run(t, analysis.ValidateFirst, "validatefirst")
}

func TestGoLifecycle(t *testing.T) {
	analysistest.Run(t, analysis.GoLifecycle, "golifecycle")
}

func TestAtomicMix(t *testing.T) {
	analysistest.Run(t, analysis.AtomicMix, "atomicmix")
}

func TestAllowAudit(t *testing.T) {
	analysistest.Run(t, analysis.AllowAudit, "allowaudit")
}
