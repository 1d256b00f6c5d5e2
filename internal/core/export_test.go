package core

// Test-only accessors, visible to the external core_test package within
// this test binary. The fault-injection switches sabotage exactly the
// mechanism each scheme's security argument rests on, so the differential
// oracle's mutation tests (mutation_test.go) can prove its
// invariants actually bite. Each setter returns a restore func.

func setForTest(p *bool, v bool) (restore func()) {
	prev := *p
	*p = v
	return func() { *p = prev }
}

// SetDoMDelayDisabledForTest disables Delay-on-Miss's speculative-miss
// delay, degrading dom to baseline behaviour.
func SetDoMDelayDisabledForTest(v bool) (restore func()) {
	return setForTest(&domDelayDisabled, v)
}

// SetInvisiBufferDisabledForTest disables InvisiSpec's speculative buffer,
// degrading invisispec to baseline behaviour.
func SetInvisiBufferDisabledForTest(v bool) (restore func()) {
	return setForTest(&invisiBufferDisabled, v)
}

// SetSTTTaintCheckDisabledForTest lets STT-Rename and STT-Issue select
// tainted transmitters, degrading both to baseline behaviour.
func SetSTTTaintCheckDisabledForTest(v bool) (restore func()) {
	return setForTest(&sttTaintCheckDisabled, v)
}

// SetNDAWithholdDisabledForTest stops NDA withholding speculative load
// broadcasts.
func SetNDAWithholdDisabledForTest(v bool) (restore func()) {
	return setForTest(&ndaWithholdDisabled, v)
}
