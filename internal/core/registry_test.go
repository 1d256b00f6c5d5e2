package core

import (
	"reflect"
	"testing"

	"repro/internal/isa"
)

func TestRegistryBuiltins(t *testing.T) {
	// Presentation order is pinned: the paper's four first, then the
	// extension schemes (DoM, InvisiSpec) in literature order — figures,
	// goldens, and CLI output all depend on this enumeration.
	want := []SchemeKind{KindBaseline, KindSTTRename, KindSTTIssue, KindNDA, KindDoM, KindInvisiSpec}
	if got := SchemeKinds(); !reflect.DeepEqual(got, want) {
		t.Errorf("SchemeKinds() = %v, want %v", got, want)
	}
	wantSecure := []SchemeKind{KindSTTRename, KindSTTIssue, KindNDA, KindDoM, KindInvisiSpec}
	if got := SecureSchemeKinds(); !reflect.DeepEqual(got, wantSecure) {
		t.Errorf("SecureSchemeKinds() = %v, want %v", got, wantSecure)
	}
	wantNames := []string{"baseline", "stt-rename", "stt-issue", "nda", "dom", "invisispec"}
	if got := SchemeNames(); !reflect.DeepEqual(got, wantNames) {
		t.Errorf("SchemeNames() = %v, want %v", got, wantNames)
	}
	for _, name := range wantNames {
		k, ok := SchemeKindByName(name)
		if !ok {
			t.Errorf("SchemeKindByName(%q) not found", name)
		}
		if k.String() != name {
			t.Errorf("kind %d String() = %q, want %q", k, k.String(), name)
		}
	}
}

func TestUnknownSchemeKindIsAnError(t *testing.T) {
	b := isa.NewBuilder("unknown")
	b.Halt()
	if _, err := New(MegaConfig(), SchemeKind(250), b.MustBuild()); err == nil {
		t.Error("New with an unregistered kind must fail")
	}
	if got := SchemeKind(250).String(); got != "scheme?" {
		t.Errorf("unregistered String() = %q", got)
	}
}
