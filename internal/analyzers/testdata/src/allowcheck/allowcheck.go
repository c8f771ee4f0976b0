// Package allowcheck is golden-test input for fbvet's self-check: allow
// directives must justify themselves.
package allowcheck

// Justified directives — em-dash and double-dash forms — are fine.
func Justified() {
	x := 1.0
	y := 1.0
	if x == y { //fbvet:allow floateq — comparing freshly assigned constants, no arithmetic involved
		_ = x
	}
	if x == y { //fbvet:allow floateq -- same as above, ASCII separator
		_ = y
	}
}

// Unjustified directives are flagged wherever they appear. (The directive is
// a block comment so the want marker can share its line.)
func Unjustified() {
	x := 1.0
	y := 1.0
	if x == y { /*fbvet:allow floateq */ // want "lacks a justification"
		_ = x
	}
}

/*fbvet:allow ndtaint */   // want "lacks a justification"
func StandaloneDirective() {}

// An unjustified allow naming allowcheck itself must still be flagged: the
// self-check bypasses the suppression table, or it could silence itself —
// which also means the directive can never suppress anything, so the
// unused-allow audit flags it too.
/*fbvet:allow allowcheck */ // want "lacks a justification" "unused"
func SelfAllow()            {}

// A justified directive naming an analyzer that does not exist is dead
// weight (likely a typo hiding a live finding) and is flagged by the audit.
/*fbvet:allow nosuchpass — justified in form, but the name is wrong */ // want "unknown analyzer"
func UnknownName()                                                     {}

// Perf directives in a function doc comment are where the perf suite reads
// them: fine, with or without trailing rationale.
//
//fbvet:noescape
//fbvet:inline hot accessor
func PerfAnnotated(a int) int { return a + 1 }

// A perf directive anywhere else binds to nothing — the perf suite silently
// ignores it, so the contract it claims is not enforced.
func StrandedPerfDirectives() {
	/*fbvet:nobce*/ // want "not a function doc comment"
	xs := []int{1, 2, 3}
	_ = xs[1] /*fbvet:noescape*/ // want "not a function doc comment"
}

/*fbvet:inline*/ // want "not a function doc comment"
var notAFunc = 7

// A misspelled directive is a dead annotation hiding behind a typo.
/*fbvet:noescap*/ // want "unknown fbvet directive"
func Typo() {}

// guardedby is not a directive: guarded fields say "guarded by mu" in
// prose, and -race tests witness them.
type guarded struct {
	n int /*fbvet:guardedby mu*/ // want "unknown fbvet directive"
}
