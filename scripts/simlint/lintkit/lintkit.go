// Package lintkit is the analysis framework behind the repository's
// simlint suite: a standard-library-only reimplementation of the subset
// of golang.org/x/tools/go/analysis that the suite needs. Each check is
// an *Analyzer that inspects one type-checked package through a *Pass
// (exactly like go/analysis) or — for the call-graph analyzers — the
// whole module through a *ModulePass. Packages are loaded via `go list
// -deps -export` plus the standard gc export-data importer (the same
// mechanism x/tools/go/packages uses), with module packages type-checked
// from source into one shared type universe, so the linter needs no
// dependencies beyond the Go toolchain already required to build the
// simulator.
//
// lintkit also owns the //simlint: source annotations the suite
// verifies:
//
//	//simlint:wallclock-ok <reason>   (nowallclock)
//	//simlint:unordered-ok <reason>   (maporder)
//	//simlint:servebound-ok <reason>  (servebound)
//	//simlint:alloc-ok <reason>       (hotalloc)
//
// A directive suppresses its analyzer on its own line and the line
// directly below, and must carry a non-empty reason; an empty reason is
// itself a lint error, reported at the suppressed site. Every suppression
// is tracked per run: the staledirective analyzer turns directives that
// no longer suppress anything — or whose name no analyzer owns — into
// diagnostics, keeping the exception inventory honest.
package lintkit

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// ModulePath is the import-path prefix of the module the suite lints.
// Analyzers use it to scope themselves (e.g. nosyncpool applies under
// ModulePath/internal only).
const ModulePath = "repro"

// An Analyzer is one named check, mirroring go/analysis.Analyzer. Run
// inspects one package at a time; RunModule sees every loaded package at
// once plus the shared call graph. An analyzer sets one or the other.
type Analyzer struct {
	Name string
	Doc  string

	// Directives names the //simlint: annotations this analyzer consumes
	// via Allowed. The union across a suite is the set of known directive
	// names; staledirective reports any annotation outside it.
	Directives []string

	Run       func(*Pass) error
	RunModule func(*ModulePass) error
}

// A Diagnostic is one reported finding, carrying its resolved position so
// results can be sorted and printed without the originating FileSet.
// Suppression names the //simlint: directive that would exempt the site
// ("" when the analyzer accepts none), so CI annotations can say how a
// reviewed exception is recorded.
type Diagnostic struct {
	Pos         token.Position
	Analyzer    string
	Message     string
	Suppression string
}

// DirectiveInfo describes one //simlint: annotation found in the loaded
// source, with how many diagnostics it suppressed during the run.
type DirectiveInfo struct {
	Name   string
	Reason string
	Pos    token.Position
	Uses   int
}

// directiveRec is the mutable per-run record behind a DirectiveInfo.
type directiveRec struct {
	name   string
	reason string
	pos    token.Position
	uses   int
}

// session holds the run-wide state shared by every pass: the directive
// index (with usage counts, consumed by staledirective and the
// -suppressions report) and the lazily built call graph.
type session struct {
	byFile map[string]map[int]*directiveRec // filename -> line -> directive
	all    []*directiveRec
	graph  *CallGraph
}

// scanDirectives indexes every //simlint: line comment in the package.
func (s *session) scanDirectives(pkg *Package) {
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//simlint:")
				if !ok {
					continue
				}
				name, reason, _ := strings.Cut(rest, " ")
				pos := pkg.Fset.Position(c.Pos())
				lines := s.byFile[pos.Filename]
				if lines == nil {
					lines = make(map[int]*directiveRec)
					s.byFile[pos.Filename] = lines
				}
				rec := &directiveRec{name: name, reason: strings.TrimSpace(reason), pos: pos}
				lines[pos.Line] = rec
				s.all = append(s.all, rec)
			}
		}
	}
}

// lookup finds the named directive covering position (own line, or the
// line directly above) and counts the hit.
func (s *session) lookup(position token.Position, name string) *directiveRec {
	lines, ok := s.byFile[position.Filename]
	if !ok {
		return nil
	}
	for _, ln := range [2]int{position.Line, position.Line - 1} {
		if d, ok := lines[ln]; ok && d.name == name {
			d.uses++
			return d
		}
	}
	return nil
}

// directives returns the annotation inventory sorted by position.
func (s *session) directives() []DirectiveInfo {
	out := make([]DirectiveInfo, 0, len(s.all))
	for _, d := range s.all {
		out = append(out, DirectiveInfo{Name: d.name, Reason: d.reason, Pos: d.pos, Uses: d.uses})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	return out
}

// A Pass connects one Analyzer to one type-checked package, mirroring
// go/analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	sess   *session
	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:         p.Fset.Position(pos),
		Analyzer:    p.Analyzer.Name,
		Message:     fmt.Sprintf(format, args...),
		Suppression: suppressionName(p.Analyzer),
	})
}

// Allowed reports whether the site at pos is covered by the named
// //simlint: directive (on the site's own line, or standalone on the line
// above). A directive without a reason still suppresses the underlying
// finding but is reported itself: annotations document *why* an exception
// is safe, and an unexplained one is exactly the drift the suite exists
// to catch.
func (p *Pass) Allowed(name string, pos token.Pos) bool {
	d := p.sess.lookup(p.Fset.Position(pos), name)
	if d == nil {
		return false
	}
	if d.reason == "" {
		p.Reportf(pos, "//simlint:%s needs a reason: state why this site is exempt", name)
	}
	return true
}

// A ModulePass connects one module-wide Analyzer to every loaded package
// at once. Position-bearing methods take the *Package owning the position
// so diagnostics resolve against the right FileSet.
type ModulePass struct {
	Analyzer *Analyzer
	Packages []*Package

	sess   *session
	known  map[string]bool
	report func(Diagnostic)
}

// CallGraph returns the conservative module call graph, built once per
// run and shared by every module analyzer.
func (mp *ModulePass) CallGraph() *CallGraph {
	if mp.sess.graph == nil {
		mp.sess.graph = buildCallGraph(mp.Packages)
	}
	return mp.sess.graph
}

// Reportf records a diagnostic at pos within pkg.
func (mp *ModulePass) Reportf(pkg *Package, pos token.Pos, format string, args ...any) {
	mp.ReportAt(pkg.Fset.Position(pos), format, args...)
}

// ReportAt records a diagnostic at an already resolved position.
func (mp *ModulePass) ReportAt(pos token.Position, format string, args ...any) {
	mp.report(Diagnostic{
		Pos:         pos,
		Analyzer:    mp.Analyzer.Name,
		Message:     fmt.Sprintf(format, args...),
		Suppression: suppressionName(mp.Analyzer),
	})
}

// Allowed is Pass.Allowed for module analyzers: pkg owns pos.
func (mp *ModulePass) Allowed(name string, pkg *Package, pos token.Pos) bool {
	d := mp.sess.lookup(pkg.Fset.Position(pos), name)
	if d == nil {
		return false
	}
	if d.reason == "" {
		mp.Reportf(pkg, pos, "//simlint:%s needs a reason: state why this site is exempt", name)
	}
	return true
}

// Directives returns every //simlint: annotation in the loaded source
// with its usage count so far. Meaningful only from an analyzer that runs
// after the rest of the suite (module analyzers run after all per-package
// passes, in suite order — staledirective therefore goes last).
func (mp *ModulePass) Directives() []DirectiveInfo { return mp.sess.directives() }

// Known reports whether any analyzer in the running suite owns the named
// directive.
func (mp *ModulePass) Known(name string) bool { return mp.known[name] }

// KnownNames returns the sorted directive names the running suite owns.
func (mp *ModulePass) KnownNames() []string {
	names := make([]string, 0, len(mp.known))
	for name := range mp.known {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// suppressionName is the directive that exempts a site from the analyzer.
func suppressionName(a *Analyzer) string {
	if len(a.Directives) > 0 {
		return a.Directives[0]
	}
	return ""
}

// Result is one full run of a suite over a package set.
type Result struct {
	Diagnostics []Diagnostic
	Directives  []DirectiveInfo
}

// RunAnalyzers applies the suite to the packages: every per-package Run
// on every package first, then the module-wide RunModule analyzers in
// suite order (so staledirective, last in the suite, observes the final
// directive usage counts). Diagnostics are sorted by position (then
// analyzer, then message), so output is deterministic regardless of load
// or map order.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) (*Result, error) {
	sess := &session{byFile: make(map[string]map[int]*directiveRec)}
	for _, pkg := range pkgs {
		sess.scanDirectives(pkg)
	}
	known := make(map[string]bool)
	for _, a := range analyzers {
		for _, name := range a.Directives {
			known[name] = true
		}
	}

	var ds []Diagnostic
	collect := func(d Diagnostic) { ds = append(ds, d) }
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				sess:      sess,
				report:    collect,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	for _, a := range analyzers {
		if a.RunModule == nil {
			continue
		}
		mp := &ModulePass{
			Analyzer: a,
			Packages: pkgs,
			sess:     sess,
			known:    known,
			report:   collect,
		}
		if err := a.RunModule(mp); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}

	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return &Result{Diagnostics: ds, Directives: sess.directives()}, nil
}

// funcPkgPath returns the import path of the package defining fn ("" for
// builtins).
func funcPkgPath(fn *types.Func) string {
	if fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// IsMethod reports whether fn is the named method on the named (possibly
// pointer) receiver type defined in pkgPath.
func IsMethod(fn *types.Func, pkgPath, recvName, name string) bool {
	if fn.Name() != name || funcPkgPath(fn) != pkgPath {
		return false
	}
	rp, rn, ok := ReceiverNamed(fn)
	return ok && rp == pkgPath && rn == recvName
}

// ReceiverNamed resolves fn's receiver to its defining package path and
// type name, dereferencing one pointer. ok is false for non-methods and
// methods on non-named receivers.
func ReceiverNamed(fn *types.Func) (pkgPath, typeName string, ok bool) {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return "", "", false
	}
	t := sig.Recv().Type()
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed || named.Obj().Pkg() == nil {
		return "", "", false
	}
	return named.Obj().Pkg().Path(), named.Obj().Name(), true
}
