package core

import "fmt"

// roster is the fixed set of schemes, indexed by kind; kind order is the
// presentation order (the paper's four, then DoM and InvisiSpec). Each
// constructor runs inside New, after the core's configuration is validated
// and its structures are sized, so it may read c.cfg to size its own
// state. Adding a scheme takes a hook file, one row here, and its
// coefficients in internal/synth.
var roster = [...]struct {
	name   string
	secure bool // false only for the unsafe baseline
	new    func(c *Core) scheme
}{
	KindBaseline:   {"baseline", false, func(*Core) scheme { return baseline{} }},
	KindSTTRename:  {"stt-rename", true, func(c *Core) scheme { return newSTTRename(c) }},
	KindSTTIssue:   {"stt-issue", true, func(c *Core) scheme { return newSTTIssue(c) }},
	KindNDA:        {"nda", true, func(*Core) scheme { return nda{} }},
	KindDoM:        {"dom", true, func(*Core) scheme { return dom{} }},
	KindInvisiSpec: {"invisispec", true, func(*Core) scheme { return invisiSpec{} }},
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

// newScheme instantiates the implementation for a kind.
func newScheme(k SchemeKind, c *Core) (scheme, error) {
	if int(k) >= len(roster) {
		return nil, fmt.Errorf("core: unknown scheme kind %d (known: %v)", k, SchemeNames())
	}
	return roster[k].new(c), nil
}
