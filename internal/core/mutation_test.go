// Mutation tests for the differential oracle's four invariants (STT,
// NDA, DoM, InvisiSpec): sabotage the one mechanism each scheme's security argument
// rests on and assert the oracle CATCHES it. Without these, a silently
// broken invariant hook would let a regressed scheme sail through the
// corpus. The file lives in the external core_test package so it can drive
// the real oracle (internal/diffsim imports core; an internal test file
// could not import it back).
package core_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/diffsim"
)

// mutationCase is a corpus case rich in shadowed speculative loads
// (pointer chases and indirect loads under data-dependent branches), so
// both sabotages are exercised on it. Pinned so the test is deterministic;
// TestMutationCaseIsSound guards against the case going stale.
var mutationCase = diffsim.Case{Seed: 9, Mask: diffsim.FeatAll}

// mutationConfig follows the campaign's seed-derived config selection, so
// the pinned case runs on the same core a real campaign would use.
func mutationConfig() core.Config { return diffsim.ConfigForCase(mutationCase) }

// TestMutationCaseIsSound: the pinned case passes the full oracle for every
// secure scheme when nothing is sabotaged — the mutation tests below fail
// it through the sabotage alone.
func TestMutationCaseIsSound(t *testing.T) {
	if err := diffsim.CheckCase(mutationConfig(), core.SecureSchemeKinds(), mutationCase); err != nil {
		t.Fatal(err)
	}
}

func wantInvariantViolation(t *testing.T, err error, fragment string) {
	t.Helper()
	if err == nil {
		t.Fatal("sabotaged scheme passed the oracle: the invariant does not bite")
	}
	if !strings.Contains(err.Error(), "security invariant violated") {
		t.Fatalf("oracle failed for the wrong reason: %v", err)
	}
	if !strings.Contains(err.Error(), fragment) {
		t.Errorf("violation message %q missing %q", err, fragment)
	}
	if !strings.Contains(err.Error(), "replay:") {
		t.Errorf("violation message %q missing the replay invocation", err)
	}
}

// TestOracleCatchesDisabledDoMDelay: with the speculative-miss delay
// disabled, dom degenerates to the unsafe baseline; its commit stream
// still matches the reference (the mutation is timing-only), so ONLY the
// no-speculative-MSHR invariant can catch it — and must.
func TestOracleCatchesDisabledDoMDelay(t *testing.T) {
	restore := core.SetDoMDelayDisabledForTest(true)
	defer restore()
	err := diffsim.CheckCase(mutationConfig(), []core.SchemeKind{core.KindDoM}, mutationCase)
	wantInvariantViolation(t, err, "occupied an MSHR")
}

// TestOracleCatchesDisabledInvisiBuffer: with the speculative buffer
// disabled, invisispec's loads take the real cache path while speculative;
// the invisible-only invariant must flag the first one.
func TestOracleCatchesDisabledInvisiBuffer(t *testing.T) {
	restore := core.SetInvisiBufferDisabledForTest(true)
	defer restore()
	err := diffsim.CheckCase(mutationConfig(), []core.SchemeKind{core.KindInvisiSpec}, mutationCase)
	wantInvariantViolation(t, err, "before exposure")
}

// TestOracleCatchesDisabledTaintCheck: with the taint check disabled, both
// STT schemes issue tainted transmitters; the commit stream still matches
// (the mutation is timing-only), so only the no-tainted-transmitter
// invariant can catch it — and must, for each scheme.
func TestOracleCatchesDisabledTaintCheck(t *testing.T) {
	restore := core.SetSTTTaintCheckDisabledForTest(true)
	defer restore()
	for _, kind := range []core.SchemeKind{core.KindSTTRename, core.KindSTTIssue} {
		err := diffsim.CheckCase(mutationConfig(), []core.SchemeKind{kind}, mutationCase)
		wantInvariantViolation(t, err, "tainted transmitter issued")
	}
}

// TestOracleCatchesDisabledNDAWithhold: with NDA's withholding disabled,
// speculative loads broadcast at writeback; the no-speculative-broadcast
// invariant must flag the first one.
func TestOracleCatchesDisabledNDAWithhold(t *testing.T) {
	restore := core.SetNDAWithholdDisabledForTest(true)
	defer restore()
	err := diffsim.CheckCase(mutationConfig(), []core.SchemeKind{core.KindNDA}, mutationCase)
	wantInvariantViolation(t, err, "speculative load broadcast released")
}
