// Package lockcheck is a heuristic checker for documented lock protocols: a
// struct field whose comment says "guarded by <mu>" may only be touched with
// that mutex held. The heuristic is deliberately simple — it matches how the
// repository writes concurrent code (lock at the top of a short method,
// defer unlock) rather than attempting a full happens-before analysis:
//
// an access to a guarded field is accepted when, in the enclosing function,
//
//   - a Lock/RLock call on a selector ending in the guard's name appears
//     earlier (by source position), or
//   - the function's name ends in "Locked" (the caller-holds-the-lock
//     convention), or
//   - the function is a constructor (name starts with new/New) — the value
//     under construction is not yet shared.
//
// Everything else is reported. False positives at audited call sites carry
// //bigmap:lock-ok. Test files are skipped: tests routinely poke fields
// single-threaded.
package lockcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"

	"github.com/bigmap/bigmap/internal/analysis"
)

// Analyzer is the lock-protocol checker.
var Analyzer = &analysis.Analyzer{
	Name:      "lockcheck",
	Doc:       "fields documented as 'guarded by <mu>' must only be accessed with the lock held",
	Directive: "lock-ok",
	Run:       run,
}

var guardedBy = regexp.MustCompile(`guarded by (\w+)`)

// guard names one protected field.
type guard struct {
	field types.Object // the field's object identity
	mu    string       // name of the guarding mutex field
}

func run(pass *analysis.Pass) error {
	guards := collectGuards(pass)
	if len(guards) == 0 {
		return nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			name := fn.Name.Name
			if strings.HasPrefix(name, "new") || strings.HasPrefix(name, "New") ||
				strings.HasSuffix(name, "Locked") {
				continue
			}
			checkFunc(pass, fn, guards)
		}
	}
	return nil
}

// collectGuards finds struct fields annotated "guarded by <mu>".
func collectGuards(pass *analysis.Pass) map[types.Object]string {
	guards := make(map[types.Object]string)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				mu := guardName(field)
				if mu == "" {
					continue
				}
				for _, name := range field.Names {
					if obj := pass.Info.Defs[name]; obj != nil {
						guards[obj] = mu
					}
				}
			}
			return true
		})
	}
	return guards
}

func guardName(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedBy.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl, guards map[types.Object]string) {
	// Positions where each mutex name is acquired in this function.
	acquires := make(map[string][]token.Pos)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
			return true
		}
		if mu := lastSelectorName(sel.X); mu != "" {
			acquires[mu] = append(acquires[mu], call.Pos())
		}
		return true
	})

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		selection, ok := pass.Info.Selections[sel]
		if !ok || selection.Kind() != types.FieldVal {
			return true
		}
		mu, guarded := guards[selection.Obj()]
		if !guarded {
			return true
		}
		for _, pos := range acquires[mu] {
			if pos < sel.Pos() {
				return true
			}
		}
		pass.Reportf(sel.Pos(),
			"%s.%s is documented as guarded by %s, but %s accesses it without acquiring the lock first",
			exprString(sel.X), sel.Sel.Name, mu, fn.Name.Name)
		return true
	})
}

// lastSelectorName returns the final identifier of a selector chain
// (p.mu -> "mu", mu -> "mu").
func lastSelectorName(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	}
	return ""
}

func exprString(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	}
	return "?"
}
