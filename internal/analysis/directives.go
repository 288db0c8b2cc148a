package analysis

import (
	"go/ast"
	"go/token"
	"slices"
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

func parseDirective(text string) *directive {
	d := &directive{}
	if rest, ok := strings.CutPrefix(text, "allow"); ok {
		parseAllow(d, rest)
		return d
	}
	verb := text
	if i := strings.IndexAny(text, " \t"); i >= 0 {
		verb = text[:i]
	}
	if wantArg, ok := annotationVerbs[verb]; ok {
		parseAnnotation(d, verb, wantArg, strings.TrimPrefix(text, verb))
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
	switch {
	case len(d.analyzers) == 0:
		d.problem = "rtlint:allow directive names no analyzer"
	case len(d.analyzers) > 1 && slices.Contains(d.analyzers, Reach.Name):
		d.problem = "rtlint:allow reach takes no other analyzer: only rtlint -reach judges it"
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
// name: the per-package analyzers plus the interprocedural ones.
func knownAnalyzerNames() map[string]bool {
	known := map[string]bool{}
	for _, a := range All {
		known[a.Name] = true
	}
	for _, a := range AllInterprocedural {
		known[a.Name] = true
	}
	known[Reach.Name] = true
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

// Problems reports malformed directives, allow directives that
// suppressed nothing, and annotations that bound to no declaration, so
// no exemption or annotation can outlive the code it describes. An
// allow that names only the reach analyzer is judged by RunReach
// alone, since only a run over the shipped binaries can use it.
func (s *DirectiveSet) Problems() []Diagnostic {
	var diags []Diagnostic
	for _, d := range s.all {
		switch {
		case d.problem != "":
			diags = append(diags, Diagnostic{Pos: d.pos, Analyzer: directiveAnalyzer, Message: d.problem})
		case d.used:
		case d.verb == "allow":
			if len(d.analyzers) == 1 && d.analyzers[0] == Reach.Name {
				continue
			}
			diags = append(diags, staleAllow(d))
		default:
			diags = append(diags, Diagnostic{
				Pos:      d.pos,
				Analyzer: directiveAnalyzer,
				Message:  "rtlint:" + d.verb + " annotates nothing; attach it to a " + annotationTarget(d.verb) + " or delete it",
			})
		}
	}
	return diags
}

// staleAllows reports the well-formed allow directives naming analyzer
// that suppressed nothing.
func (s *DirectiveSet) staleAllows(analyzer string) []Diagnostic {
	var diags []Diagnostic
	for _, d := range s.all {
		if d.problem == "" && !d.used && d.verb == "allow" && slices.Contains(d.analyzers, analyzer) {
			diags = append(diags, staleAllow(d))
		}
	}
	return diags
}

func staleAllow(d *directive) Diagnostic {
	return Diagnostic{
		Pos:      d.pos,
		Analyzer: directiveAnalyzer,
		Message:  "rtlint:allow " + strings.Join(d.analyzers, ",") + " suppresses nothing; delete the stale directive",
	}
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
