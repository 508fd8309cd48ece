// Package callgraph builds a static call graph over the type-checked
// packages of an analysis.Module, for the interprocedural analyzers
// (allocfree). The constructor resolves four call shapes:
//
//   - Direct calls of package-level functions and concrete methods,
//     including method expressions (T.M) and promoted methods.
//   - Interface method calls, bounded by in-module implementations: an
//     i.M() call adds one edge per named type in the analyzed packages
//     whose method set satisfies the interface.
//   - Calls through function values (fields, variables, parameters) — the
//     shape of the fuzzer's swappable clock (the Fuzzer.now field) and of
//     the candidate callback Mutator.Deterministic invokes. A
//     flow-insensitive, field-sensitive propagation tracks which functions
//     are assigned into each object (direct assignment, composite-literal
//     field, argument-to-parameter binding) to a fixpoint.
//   - Function literals, which are first-class nodes: a closure passed into
//     a hot function is reachable even when its enclosing function is not.
//
// When a dynamic call's value flow resolves to nothing (the value came
// through a channel, a map, a slice element or a function return), the
// builder falls back to linking every address-taken function of identical
// signature — imprecise but bounded, and sound for the shapes the
// repository uses.
//
// Soundness limits (documented contract, see DESIGN §15): function values
// returned from calls, stored in or loaded from containers (maps, slices,
// channels), and reflection are resolved only by the signature fallback;
// calls into the standard library are not edges (std code cannot call back
// into module code except through a passed function value, which the
// fallback covers when its address is taken in module code). Test files are
// never part of the graph.
package callgraph

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"github.com/bigmap/bigmap/internal/analysis"
)

// EdgeKind classifies how a call site was resolved.
type EdgeKind uint8

const (
	// EdgeStatic is a direct call of a known function or concrete method.
	EdgeStatic EdgeKind = iota
	// EdgeInterface is an interface method call, resolved to one in-module
	// implementation per edge.
	EdgeInterface
	// EdgeFuncValue is a call through a function-valued expression, resolved
	// by value-flow tracking or the signature fallback.
	EdgeFuncValue
)

func (k EdgeKind) String() string {
	switch k {
	case EdgeStatic:
		return "static"
	case EdgeInterface:
		return "interface"
	case EdgeFuncValue:
		return "funcvalue"
	default:
		return fmt.Sprintf("EdgeKind(%d)", int(k))
	}
}

// Edge is one resolved call: the enclosing function calls Callee at Site.
type Edge struct {
	Callee *Node
	Site   token.Pos
	Kind   EdgeKind
}

// Node is one function in the graph: a declared function or method
// (Func/Decl set) or a function literal (Lit set).
type Node struct {
	// Func is the declared function or method object; nil for literals.
	Func *types.Func
	// Decl is the declaration syntax; nil for literals.
	Decl *ast.FuncDecl
	// Lit is the literal syntax; nil for declared functions.
	Lit *ast.FuncLit
	// Pkg is the package the function's body lives in.
	Pkg *analysis.Package
	// Out lists the node's resolved call sites in source order.
	Out []Edge

	name string
}

// Name returns a stable human-readable identifier: the object's FullName
// for declared functions ("(*pkg.T).M", "pkg.F"), or the enclosing
// function's name with a $N suffix for literals ("pkg.F$1").
func (n *Node) Name() string { return n.name }

// Pos returns the function's declaration position.
func (n *Node) Pos() token.Pos {
	if n.Decl != nil {
		return n.Decl.Pos()
	}
	return n.Lit.Pos()
}

// Body returns the function body, nil for bodyless declarations.
func (n *Node) Body() *ast.BlockStmt {
	if n.Decl != nil {
		return n.Decl.Body
	}
	return n.Lit.Body
}

// Graph is the module call graph.
type Graph struct {
	// Nodes lists every function in deterministic (package, file, position)
	// order.
	Nodes []*Node

	fset   *token.FileSet
	byFunc map[*types.Func]*Node
	byLit  map[*ast.FuncLit]*Node
}

// NodeFor returns the node of a declared function or method, nil if the
// function has no body in the analyzed packages.
func (g *Graph) NodeFor(fn *types.Func) *Node {
	if fn == nil {
		return nil
	}
	return g.byFunc[origin(fn)]
}

// Lookup finds a declared node by its Name() string, nil if absent.
func (g *Graph) Lookup(name string) *Node {
	for _, n := range g.Nodes {
		if n.name == name {
			return n
		}
	}
	return nil
}

// Reachable runs a breadth-first traversal from roots and returns, for every
// reachable node, the node it was first discovered from (roots map to nil).
// The parent chain reconstructs one concrete call path for diagnostics.
func (g *Graph) Reachable(roots []*Node) map[*Node]*Node {
	parents := make(map[*Node]*Node, len(roots))
	queue := make([]*Node, 0, len(roots))
	for _, r := range roots {
		if r == nil {
			continue
		}
		if _, ok := parents[r]; ok {
			continue
		}
		parents[r] = nil
		queue = append(queue, r)
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.Out {
			if _, ok := parents[e.Callee]; ok {
				continue
			}
			parents[e.Callee] = n
			queue = append(queue, e.Callee)
		}
	}
	return parents
}

// PathTo reconstructs the root→…→n call chain from a Reachable parent map.
func PathTo(parents map[*Node]*Node, n *Node) []*Node {
	var rev []*Node
	for cur := n; cur != nil; cur = parents[cur] {
		rev = append(rev, cur)
		if len(rev) > len(parents)+1 {
			break // defensive: corrupt parent map
		}
	}
	path := make([]*Node, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		path = append(path, rev[i])
	}
	return path
}

// FuncsWithDirective returns the declared nodes whose doc comment carries
// the //bigmap:<directive> marker (justification text optional — the marker
// declares a property, unlike a suppression, which audits one).
func (g *Graph) FuncsWithDirective(directive string) []*Node {
	want := analysis.DirectivePrefix + directive
	var out []*Node
	for _, n := range g.Nodes {
		if n.Decl == nil || n.Decl.Doc == nil {
			continue
		}
		for _, c := range n.Decl.Doc.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if text == want || strings.HasPrefix(text, want+" ") {
				out = append(out, n)
				break
			}
		}
	}
	return out
}

// origin normalizes generic instantiations to their declared object.
func origin(fn *types.Func) *types.Func {
	if o := fn.Origin(); o != nil {
		return o
	}
	return fn
}
