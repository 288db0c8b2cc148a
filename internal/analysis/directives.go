package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// directivePrefix introduces an rtlint comment. Two families exist:
//
// Exemptions:
//
//	//rtlint:allow <analyzer>[,<analyzer>...] -- <reason>
//
// The reason is mandatory: an exemption must say why it is safe. An
// allow directive covers its own source line and the line directly
// below it.
//
// Annotations, which declare the invariants the interprocedural
// analyzers enforce (see hotalloc.go, guardedby.go, arenaescape.go):
//
//	//rtlint:hotpath            (on a function: hot-path root)
//	//rtlint:guardedby <mutex>  (on a struct field: held-lock discipline)
//	//rtlint:arena              (on a struct field: scratch must not escape)
//	//rtlint:holds <x>.<mutex>  (on a function: caller passes the lock held)
//	//rtlint:acquires <mutex>   (on a function: returns with the result's lock held)
//
// An annotation binds to the declaration it documents (the line below
// it, or its own line when trailing). A directive that is malformed,
// names an unknown analyzer or verb, suppresses nothing, or annotates
// nothing is itself reported, so neither exemptions nor annotations
// can rot silently.
const directivePrefix = "rtlint:"

// directiveAnalyzer attributes directive problems in diagnostics.
const directiveAnalyzer = "directive"

type directive struct {
	pos       token.Position
	verb      string   // "allow" or an annotation verb
	analyzers []string // allow: the exempted analyzers
	args      []string // annotations: verb arguments
	reason    string
	problem   string // non-empty: parse error, reported as a finding
	used      bool
}

// annotationVerbs lists the declaration-binding verbs and whether they
// take exactly one argument.
var annotationVerbs = map[string]bool{
	"hotpath":   false,
	"arena":     false,
	"guardedby": true,
	"holds":     true,
	"acquires":  true,
}

// DirectiveSet holds the parsed rtlint directives of one package and
// tracks which of them actually suppressed a finding or bound to a
// declaration.
type DirectiveSet struct {
	// byLine maps filename -> line -> directives covering that line.
	// A directive covers its own line and the one directly below it.
	byLine map[string]map[int][]*directive
	all    []*directive
}

// ParseDirectives scans every comment in files for rtlint directives.
func ParseDirectives(fset *token.FileSet, files []*ast.File) *DirectiveSet {
	s := &DirectiveSet{byLine: map[string]map[int][]*directive{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := directiveText(c.Text)
				if !ok {
					continue
				}
				d := parseDirective(text)
				d.pos = fset.Position(c.Pos())
				s.all = append(s.all, d)
				lines := s.byLine[d.pos.Filename]
				if lines == nil {
					lines = map[int][]*directive{}
					s.byLine[d.pos.Filename] = lines
				}
				lines[d.pos.Line] = append(lines[d.pos.Line], d)
				lines[d.pos.Line+1] = append(lines[d.pos.Line+1], d)
			}
		}
	}
	return s
}

// directiveText strips the comment markers and reports whether the
// comment is an rtlint directive.
func directiveText(comment string) (string, bool) {
	var body string
	switch {
	case strings.HasPrefix(comment, "//"):
		body = comment[2:]
	case strings.HasPrefix(comment, "/*"):
		body = strings.TrimSuffix(comment[2:], "*/")
	default:
		return "", false
	}
	if !strings.HasPrefix(body, directivePrefix) {
		return "", false
	}
	return strings.TrimPrefix(body, directivePrefix), true
}

// stripWant drops an embedded golden-test `// want` expectation; it is
// not part of the directive's payload.
func stripWant(s string) string {
	if want := strings.Index(s, "// want"); want >= 0 {
		s = s[:want]
	}
	return s
}

// parseDirective parses one directive's text: a verb, a whole word,
// then its payload.
func parseDirective(text string) *directive {
	d := &directive{}
	verb, rest := text, ""
	if i := strings.IndexAny(text, " \t"); i >= 0 {
		verb, rest = text[:i], text[i:]
	}
	if verb == "allow" {
		parseAllow(d, rest)
		return d
	}
	if wantArg, ok := annotationVerbs[verb]; ok {
		parseAnnotation(d, verb, wantArg, rest)
		return d
	}
	d.problem = "unknown rtlint directive verb; known verbs: allow, hotpath, guardedby, arena, holds, acquires"
	return d
}

// parseAllow parses the exemption form: analyzers, then a mandatory
// reason after "--".
func parseAllow(d *directive, rest string) {
	d.verb = "allow"
	names, reason, found := strings.Cut(rest, "--")
	if !found || strings.TrimSpace(stripWant(reason)) == "" {
		d.problem = "rtlint:allow directive needs a reason: //rtlint:allow <analyzer> -- <reason>"
		return
	}
	d.reason = strings.TrimSpace(stripWant(reason))
	known := knownAnalyzerNames()
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if !known[name] {
			d.problem = "rtlint:allow names unknown analyzer " + name
			return
		}
		d.analyzers = append(d.analyzers, name)
	}
	if len(d.analyzers) == 0 {
		d.problem = "rtlint:allow directive names no analyzer"
	}
}

// parseAnnotation parses the declaration-binding verbs. An optional
// "-- reason" tail is tolerated (and encouraged on hotpath roots).
func parseAnnotation(d *directive, verb string, wantArg bool, rest string) {
	d.verb = verb
	args, reason, _ := strings.Cut(rest, "--")
	d.reason = strings.TrimSpace(stripWant(reason))
	fields := strings.Fields(stripWant(args))
	switch {
	case wantArg && len(fields) != 1:
		d.problem = "rtlint:" + verb + " takes exactly one argument: //rtlint:" + verb + " <name>"
	case !wantArg && len(fields) != 0:
		d.problem = "rtlint:" + verb + " takes no arguments"
	default:
		d.args = fields
	}
}

// knownAnalyzerNames collects every analyzer an allow directive may
// name.
func knownAnalyzerNames() map[string]bool {
	known := map[string]bool{}
	for _, a := range All {
		known[a.Name] = true
	}
	return known
}

// Allows reports whether an allow directive covers (analyzer, pos),
// marking the directive used.
func (s *DirectiveSet) Allows(analyzer string, pos token.Position) bool {
	allowed := false
	for _, d := range s.byLine[pos.Filename][pos.Line] {
		if d.problem != "" || d.verb != "allow" {
			continue
		}
		for _, name := range d.analyzers {
			if name == analyzer {
				d.used = true
				allowed = true
			}
		}
	}
	return allowed
}

// annotationsAt returns the well-formed annotation directives with the
// given verb covering (filename, line) — i.e. written on that line or
// the line directly above it.
func (s *DirectiveSet) annotationsAt(verb, filename string, line int) []*directive {
	var out []*directive
	for _, d := range s.byLine[filename][line] {
		if d.problem == "" && d.verb == verb {
			out = append(out, d)
		}
	}
	return out
}

// Problems reports malformed directives, annotations that bound to no
// declaration, and allow directives that suppressed nothing although
// every analyzer they name ran, so no exemption or annotation can
// outlive the code it describes. ran holds the names of the analyzers
// that ran; an allow naming one that did not stays unjudged.
func (s *DirectiveSet) Problems(ran map[string]bool) []Diagnostic {
	var diags []Diagnostic
	for _, d := range s.all {
		switch {
		case d.problem != "":
			diags = append(diags, directiveDiag(d.pos, "%s", d.problem))
		case d.used:
		case d.verb == "allow":
			if !allRan(d.analyzers, ran) {
				continue
			}
			diags = append(diags, directiveDiag(d.pos, "rtlint:allow %s suppresses nothing; delete the stale directive", strings.Join(d.analyzers, ",")))
		default:
			diags = append(diags, directiveDiag(d.pos, "rtlint:%s annotates nothing; attach it to a %s or delete it", d.verb, annotationTarget(d.verb)))
		}
	}
	return diags
}

func allRan(names []string, ran map[string]bool) bool {
	for _, name := range names {
		if !ran[name] {
			return false
		}
	}
	return true
}

// annotationTarget names the declaration kind a verb must document,
// for the annotates-nothing diagnostic.
func annotationTarget(verb string) string {
	switch verb {
	case "guardedby", "arena":
		return "struct field"
	default:
		return "function declaration"
	}
}
