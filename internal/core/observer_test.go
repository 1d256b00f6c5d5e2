package core

import "testing"

// countingObserver tallies events by stage, annotations on the pipeline
// stages (the records a trace holds), and the events that would break each
// scheme's security invariant, without inspecting the run.
type countingObserver struct {
	byStage  [numStages]uint64
	byAnnot  [numAnnots]uint64
	badStage int

	taintedTransmit int
	specBroadcasts  int // broadcasts or NDA releases while speculative
	specMSHRs       int // speculative accesses occupying an MSHR
	specVisible     int // speculative accesses that were not invisible
}

func (o *countingObserver) Observe(ev Event) {
	if ev.Stage >= numStages {
		o.badStage++
		return
	}
	o.byStage[ev.Stage]++
	// Only pipeline-stage annotations count, so an annotation check means
	// the trace records carry it: a StageCacheAccess event also carries
	// AnnotInvisible and must not satisfy the check on its own.
	for i := 0; ev.Stage <= StageSquash && i < numAnnots; i++ {
		if ev.Annot&(1<<i) != 0 {
			o.byAnnot[i]++
		}
	}
	if ev.Transmitter && ev.Tainted {
		o.taintedTransmit++
	}
	if !ev.Speculative {
		return
	}
	vp := ev.Stage == StageVP
	switch {
	case ev.Stage == StageBroadcast, vp && ev.Annot&AnnotNDAReleased != 0:
		o.specBroadcasts++
	case ev.Stage == StageCacheAccess, vp && ev.Annot&AnnotExposure != 0:
		if ev.Annot&(AnnotL1Hit|AnnotInvisible) == 0 {
			o.specMSHRs++
		}
		if ev.Annot&AnnotInvisible == 0 {
			o.specVisible++
		}
	}
}

// observeBudget bounds the observer-test runs; hashedRun (the shared cell
// runner in commitstream_test.go) does the hashing.
const observeBudget = 10_000

// observedRun runs kind on 505.mcf with a counting observer attached and
// fails the test unless the commit stream and cycle count are
// byte-identical to the same run without one: attaching an observer must
// not perturb timing or architectural results.
func observedRun(t *testing.T, cfg Config, kind SchemeKind) *countingObserver {
	t.Helper()
	obs := &countingObserver{}
	withHash, withCycles := hashedRun(t, cfg, kind, "505.mcf", observeBudget, obs)
	bareHash, bareCycles := hashedRun(t, cfg, kind, "505.mcf", observeBudget, nil)
	if withHash != bareHash || withCycles != bareCycles {
		t.Errorf("%s: observer perturbed the run: hash %s/%s cycles %d/%d",
			kind, withHash, bareHash, withCycles, bareCycles)
	}
	if obs.badStage > 0 {
		t.Errorf("%s: %d events with out-of-range stage", kind, obs.badStage)
	}
	return obs
}

// TestProbeIsObservational pins the observation hook's contract for the
// security-relevant events (issue, load broadcast, cache access): an
// attached observer leaves the run unperturbed for every registered
// scheme, and sees each of those events.
func TestProbeIsObservational(t *testing.T) {
	cfg := MegaConfig()
	for _, kind := range SchemeKinds() {
		obs := observedRun(t, cfg, kind)
		for _, st := range []Stage{StageIssue, StageBroadcast, StageCacheAccess} {
			if obs.byStage[st] == 0 {
				t.Errorf("%s: no %s events observed", kind, st)
			}
		}
	}
}

// TestRecorderIsObservational pins the same contract for the pipeline
// stage trace: an attached observer leaves the run unperturbed for every
// registered scheme, sees every pipeline stage, and accounts for every
// renamed uop.
func TestRecorderIsObservational(t *testing.T) {
	cfg := MegaConfig()
	for _, kind := range SchemeKinds() {
		obs := observedRun(t, cfg, kind)
		for _, st := range []Stage{StageFetch, StageRename, StageIssue, StageWriteback, StageCommit} {
			if obs.byStage[st] == 0 {
				t.Errorf("%s: no %s events observed", kind, st)
			}
		}
		// Rename admits a uop; commit or squash retires it. The counts
		// can differ only by the uops still in flight at the cycle cap.
		entered := obs.byStage[StageRename]
		left := obs.byStage[StageCommit] + obs.byStage[StageSquash]
		if left > entered {
			t.Errorf("%s: %d commits+squashes but only %d renames", kind, left, entered)
		}
		if entered-left > uint64(cfg.ROBSize) {
			t.Errorf("%s: %d uops unaccounted for (> ROB size %d)", kind, entered-left, cfg.ROBSize)
		}
	}
}

// TestProbeSecurityInvariantsOnProxies asserts the schemes' invariants on
// a real proxy workload, not just generated programs: STT never issues a
// tainted transmitter, NDA never releases a speculative load broadcast,
// DoM never lets a speculative load occupy an MSHR, and InvisiSpec keeps
// every speculative access invisible.
func TestProbeSecurityInvariantsOnProxies(t *testing.T) {
	cfg := MegaConfig()
	run := func(kind SchemeKind) *countingObserver {
		obs := &countingObserver{}
		hashedRun(t, cfg, kind, "505.mcf", observeBudget, obs)
		return obs
	}
	for _, kind := range []SchemeKind{KindSTTRename, KindSTTIssue} {
		if n := run(kind).taintedTransmit; n > 0 {
			t.Errorf("%s: %d tainted transmitters issued", kind, n)
		}
	}
	if n := run(KindNDA).specBroadcasts; n > 0 {
		t.Errorf("nda: %d speculative load broadcasts released", n)
	}
	if n := run(KindDoM).specMSHRs; n > 0 {
		t.Errorf("dom: %d speculative MSHR occupancies", n)
	}
	inv := run(KindInvisiSpec)
	if inv.specVisible > 0 {
		t.Errorf("invisispec: %d speculative accesses reached the cache side-effect path", inv.specVisible)
	}
	if inv.byAnnot[annotIndex(t, "exposure")] == 0 {
		t.Error("invisispec: no exposure re-accesses observed on a memory-bound proxy")
	}
}

func annotIndex(t *testing.T, name string) int {
	t.Helper()
	for i, n := range annotNames {
		if n == name {
			return i
		}
	}
	t.Fatalf("unknown annotation %q", name)
	return -1
}

// TestRecorderSchemeAnnotations asserts each scheme's delay insertions
// are visible in the stream on a memory-bound proxy: DoM parks, InvisiSpec
// invisible loads and exposures, NDA withheld/released broadcasts, and
// STT-Issue nop slots.
func TestRecorderSchemeAnnotations(t *testing.T) {
	cfg := MegaConfig()
	cases := []struct {
		kind   SchemeKind
		annots []string
	}{
		{KindDoM, []string{"dom-park", "dom-resume"}},
		{KindInvisiSpec, []string{"invisible", "exposure"}},
		{KindNDA, []string{"nda-withheld", "nda-release"}},
		{KindSTTIssue, []string{"stt-nop"}},
	}
	for _, tc := range cases {
		obs := &countingObserver{}
		hashedRun(t, cfg, tc.kind, "505.mcf", observeBudget, obs)
		for _, name := range tc.annots {
			if obs.byAnnot[annotIndex(t, name)] == 0 {
				t.Errorf("%s: no %s annotations observed", tc.kind, name)
			}
		}
	}
	// The baseline inserts no scheme delays: none of the scheme
	// annotations may appear.
	obs := &countingObserver{}
	hashedRun(t, cfg, KindBaseline, "505.mcf", observeBudget, obs)
	for _, name := range []string{"dom-park", "dom-resume", "invisible", "exposure", "nda-withheld", "nda-release", "stt-nop"} {
		if n := obs.byAnnot[annotIndex(t, name)]; n > 0 {
			t.Errorf("baseline: %d %s annotations observed", n, name)
		}
	}
}

// TestAnnotNames pins the two annotation renderers against each other.
func TestAnnotNames(t *testing.T) {
	set := AnnotL1Hit | AnnotDoMParked | AnnotMispredict
	want := "l1-hit|dom-park|mispredict"
	if got := string(set.AppendNames(nil)); got != want {
		t.Errorf("AppendNames = %q, want %q", got, want)
	}
	names := set.AnnotNames()
	if len(names) != 3 || names[0] != "l1-hit" || names[1] != "dom-park" || names[2] != "mispredict" {
		t.Errorf("AnnotNames = %v", names)
	}
	if got := TraceAnnot(0).AppendNames(nil); len(got) != 0 {
		t.Errorf("empty set rendered %q", got)
	}
}
