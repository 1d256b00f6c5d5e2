package core

// roster is the fixed set of schemes, indexed by kind; kind order is the
// presentation order (the paper's four, then DoM and InvisiSpec). A row is
// the scheme's load policy plus, for the STT schemes, its taint unit's
// constructor; a nil constructor means noTaint. Each constructor runs
// inside Reset, after the core's configuration is validated and its
// structures are sized, so it may read c.cfg to size its own state.
// Adding a scheme takes one row here, the pipeline code its policy
// selects, and its coefficients in internal/synth.
var roster = [...]struct {
	name   string
	secure bool // false only for the unsafe baseline
	load   loadPolicy
	taint  func(c *Core) taintUnit
}{
	KindBaseline:   {"baseline", false, loadPolicy{}, nil},
	KindSTTRename:  {"stt-rename", true, loadPolicy{}, func(c *Core) taintUnit { return newSTTRename(c) }},
	KindSTTIssue:   {"stt-issue", true, loadPolicy{}, func(c *Core) taintUnit { return newSTTIssue(c) }},
	KindNDA:        {"nda", true, loadPolicy{withholdBroadcast: true, noSpecWakeup: true}, nil},
	KindDoM:        {"dom", true, loadPolicy{delaySpecMiss: true}, nil},
	KindInvisiSpec: {"invisispec", true, loadPolicy{invisibleLoads: true}, nil},
}

// SchemeKinds returns every kind in presentation order.
func SchemeKinds() []SchemeKind {
	kinds := make([]SchemeKind, len(roster))
	for i := range roster {
		kinds[i] = SchemeKind(i)
	}
	return kinds
}

// SecureSchemeKinds returns every kind but the baseline, in presentation
// order: everything the baseline is compared against.
func SecureSchemeKinds() []SchemeKind {
	var kinds []SchemeKind
	for i, s := range roster {
		if s.secure {
			kinds = append(kinds, SchemeKind(i))
		}
	}
	return kinds
}

// SchemeKindByName parses a scheme name.
func SchemeKindByName(name string) (SchemeKind, bool) {
	for i, s := range roster {
		if s.name == name {
			return SchemeKind(i), true
		}
	}
	return 0, false
}

// SchemeNames returns every scheme name in presentation order.
func SchemeNames() []string {
	names := make([]string, len(roster))
	for i, s := range roster {
		names[i] = s.name
	}
	return names
}

func (k SchemeKind) String() string {
	if int(k) < len(roster) {
		return roster[k].name
	}
	return "scheme?"
}
