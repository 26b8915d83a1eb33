// Scenario contract checks through internal/testkit. External test
// package: testkit imports core, so this cannot live in package core.
package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/testkit"
)

// TestRegisteredScenarioContracts: every registered scenario's
// SampleBatch must fully overwrite dst, leave the tail bits zero and
// honour any declared draw layout, for every class, under arbitrary
// seeds.
func TestRegisteredScenarioContracts(t *testing.T) {
	scs := core.RegisteredScenarios()
	if len(scs) < 11 {
		t.Fatalf("registry has %d scenarios, want all 11 families", len(scs))
	}
	for _, s := range scs {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			t.Parallel()
			// 60 draws per scenario: each class gets sampled repeatedly;
			// Trivium inits dominate the cost.
			testkit.CheckScenario(t, s, testkit.Config{Count: 60})
		})
	}
}

// TestRegistryNamesUnique: scenario names key result files and logs;
// duplicates would silently overwrite each other.
func TestRegistryNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range core.RegisteredScenarios() {
		if seen[s.Name()] {
			t.Fatalf("duplicate scenario name %q", s.Name())
		}
		seen[s.Name()] = true
	}
}
