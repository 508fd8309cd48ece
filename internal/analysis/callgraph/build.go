package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"

	"github.com/bigmap/bigmap/internal/analysis"
)

// Build constructs the call graph of the given type-checked packages. The
// packages should come from one Module loaded without test files, so that
// cross-package object identities agree (the loader resolves imports to the
// tests=false variant of each package).
func Build(pkgs []*analysis.Package) *Graph {
	b := &builder{
		g: &Graph{
			byFunc: make(map[*types.Func]*Node),
			byLit:  make(map[*ast.FuncLit]*Node),
		},
		sources:   make(map[types.Object]map[*Node]bool),
		flowsInto: make(map[types.Object][]types.Object),
		addrTaken: make(map[*Node]bool),
	}
	if len(pkgs) > 0 {
		b.g.fset = pkgs[0].Fset
	}
	for _, pkg := range pkgs {
		b.collectNodes(pkg)
		b.collectNamedTypes(pkg)
	}
	for _, pkg := range pkgs {
		for _, f := range b.moduleFiles(pkg) {
			b.collectFlows(pkg, f)
		}
	}
	b.propagate()
	for _, n := range b.g.Nodes {
		b.buildEdges(n)
	}
	return b.g
}

type builder struct {
	g *Graph

	// namedTypes lists every non-interface named type declared in the
	// analyzed packages, candidates for interface dispatch.
	namedTypes []*types.Named

	// sources maps a function-typed object (var, field, parameter) to the
	// set of function nodes whose values are assigned into it.
	sources map[types.Object]map[*Node]bool
	// flowsInto records object-to-object copies: targets of the key flow
	// into each listed object during propagation.
	flowsInto map[types.Object][]types.Object
	// addrTaken marks functions whose value is used outside call position —
	// the candidate set for the signature fallback.
	addrTaken map[*Node]bool
}

// moduleFiles returns the package's non-test files. Packages loaded without
// tests contain none, but the guard keeps the graph honest if a caller hands
// over a tests=true load.
func (b *builder) moduleFiles(pkg *analysis.Package) []*ast.File {
	files := make([]*ast.File, 0, len(pkg.Files))
	for _, f := range pkg.Files {
		name := pkg.Fset.Position(f.Package).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		files = append(files, f)
	}
	return files
}

// collectNodes creates one node per declared function with a body and one
// per function literal, naming literals after their enclosing function.
func (b *builder) collectNodes(pkg *analysis.Package) {
	for _, f := range b.moduleFiles(pkg) {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				fn, _ := pkg.Info.Defs[d.Name].(*types.Func)
				if fn == nil || d.Body == nil {
					continue
				}
				n := &Node{Func: fn, Decl: d, Pkg: pkg, name: fn.FullName()}
				b.g.Nodes = append(b.g.Nodes, n)
				b.g.byFunc[fn] = n
				b.collectLits(pkg, d.Body, n.name)
			case *ast.GenDecl:
				// Function literals in package-level initializers (var
				// handlers = ...) are callable through value flow.
				b.collectLits(pkg, d, pkg.Path+".init")
			}
		}
	}
}

// collectLits registers every function literal under root as a node, with
// $1, $2, ... suffixes in source order (nested literals recurse with their
// own name as the new prefix).
func (b *builder) collectLits(pkg *analysis.Package, root ast.Node, prefix string) {
	count := 0
	ast.Inspect(root, func(node ast.Node) bool {
		if node == root {
			return true
		}
		lit, ok := node.(*ast.FuncLit)
		if !ok {
			return true
		}
		count++
		n := &Node{Lit: lit, Pkg: pkg, name: prefix + "$" + strconv.Itoa(count)}
		b.g.Nodes = append(b.g.Nodes, n)
		b.g.byLit[lit] = n
		b.collectLits(pkg, lit.Body, n.name)
		return false // children handled by the recursive call
	})
}

func (b *builder) collectNamedTypes(pkg *analysis.Package) {
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok || types.IsInterface(named) {
			continue
		}
		b.namedTypes = append(b.namedTypes, named)
	}
}

// --- value flow collection -------------------------------------------------

// collectFlows walks one file recording every way a function value can move
// into an object: assignments, var initializers, composite-literal fields,
// and call-argument-to-parameter binding. It also marks address-taken
// functions (any value use outside call position) for the fallback.
func (b *builder) collectFlows(pkg *analysis.Package, f *ast.File) {
	info := pkg.Info
	// calleePos holds the expressions occupying call position (the Fun of
	// some call); function references elsewhere are address-taken.
	calleePos := make(map[ast.Expr]bool)
	ast.Inspect(f, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		fun := ast.Unparen(call.Fun)
		calleePos[fun] = true
		if sel, ok := fun.(*ast.SelectorExpr); ok {
			calleePos[sel.Sel] = true
		}
		return true
	})

	ast.Inspect(f, func(node ast.Node) bool {
		switch n := node.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					b.flowInto(pkg, b.lhsObject(info, n.Lhs[i]), n.Rhs[i])
				}
			}
			// Tuple assignment from a call: function-valued results are a
			// documented soundness limit (signature fallback covers them).
		case *ast.ValueSpec:
			if len(n.Names) == len(n.Values) {
				for i := range n.Names {
					b.flowInto(pkg, info.Defs[n.Names[i]], n.Values[i])
				}
			}
		case *ast.CompositeLit:
			b.flowCompositeLit(pkg, n)
		case *ast.CallExpr:
			b.flowCallArgs(pkg, n)
		case *ast.ReturnStmt:
			// Returned function values: soundness limit, fallback only.
		case *ast.Ident:
			if calleePos[n] {
				return true
			}
			if fn, ok := info.Uses[n].(*types.Func); ok {
				if target := b.g.NodeFor(fn); target != nil {
					b.addrTaken[target] = true
				}
			}
		case *ast.SelectorExpr:
			if calleePos[n] {
				return true
			}
			if sel, ok := info.Selections[n]; ok && sel.Kind() == types.MethodVal {
				if target := b.g.NodeFor(sel.Obj().(*types.Func)); target != nil {
					b.addrTaken[target] = true
				}
				// Keep descending: the receiver expression may hold calls
				// and further references (re-marking via Sel is idempotent).
			}
		case *ast.FuncLit:
			if !calleePos[n] {
				if target := b.g.byLit[n]; target != nil {
					b.addrTaken[target] = true
				}
			}
		}
		return true
	})
}

// lhsObject resolves an assignment target to its object: a variable ident or
// a struct field selector. Index and dereference targets return nil
// (container element flow is a documented soundness limit).
func (b *builder) lhsObject(info *types.Info, lhs ast.Expr) types.Object {
	switch l := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if obj := info.Defs[l]; obj != nil {
			return obj
		}
		return info.Uses[l]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[l]; ok && sel.Kind() == types.FieldVal {
			return sel.Obj()
		}
		return info.Uses[l.Sel] // qualified package-level var
	}
	return nil
}

// flowInto records that the value of rhs flows into obj.
func (b *builder) flowInto(pkg *analysis.Package, obj types.Object, rhs ast.Expr) {
	if obj == nil {
		return
	}
	targets, from := b.valueSources(pkg, rhs)
	for _, t := range targets {
		b.addSource(obj, t)
	}
	if from != nil && from != obj {
		b.flowsInto[from] = append(b.flowsInto[from], obj)
	}
}

// valueSources resolves an expression to the function nodes it directly
// denotes and/or the object whose contents it copies.
func (b *builder) valueSources(pkg *analysis.Package, e ast.Expr) (targets []*Node, from types.Object) {
	info := pkg.Info
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		switch obj := info.Uses[e].(type) {
		case *types.Func:
			if n := b.g.NodeFor(obj); n != nil {
				return []*Node{n}, nil
			}
		case *types.Var:
			return nil, obj
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok {
			switch sel.Kind() {
			case types.MethodVal, types.MethodExpr:
				if n := b.g.NodeFor(sel.Obj().(*types.Func)); n != nil {
					return []*Node{n}, nil
				}
			case types.FieldVal:
				return nil, sel.Obj()
			}
			return nil, nil
		}
		// Qualified reference: pkg.F or pkg.Var.
		switch obj := info.Uses[e.Sel].(type) {
		case *types.Func:
			if n := b.g.NodeFor(obj); n != nil {
				return []*Node{n}, nil
			}
		case *types.Var:
			return nil, obj
		}
	case *ast.FuncLit:
		if n := b.g.byLit[e]; n != nil {
			return []*Node{n}, nil
		}
	case *ast.TypeAssertExpr:
		return b.valueSources(pkg, e.X)
	}
	return nil, nil
}

func (b *builder) addSource(obj types.Object, n *Node) {
	set := b.sources[obj]
	if set == nil {
		set = make(map[*Node]bool)
		b.sources[obj] = set
	}
	set[n] = true
}

// flowCompositeLit binds composite-literal elements to struct fields, so
// Fuzzer{now: time.Now}-style construction is tracked.
func (b *builder) flowCompositeLit(pkg *analysis.Package, lit *ast.CompositeLit) {
	tv, ok := pkg.Info.Types[lit]
	if !ok {
		return
	}
	st, ok := typeUnder(tv.Type).(*types.Struct)
	if !ok {
		return
	}
	for i, elt := range lit.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			key, ok := kv.Key.(*ast.Ident)
			if !ok {
				continue
			}
			if field, ok := pkg.Info.Uses[key].(*types.Var); ok {
				b.flowInto(pkg, field, kv.Value)
			}
			continue
		}
		if i < st.NumFields() {
			b.flowInto(pkg, st.Field(i), elt)
		}
	}
}

// flowCallArgs binds call arguments to the parameters of statically known
// callees, which is how a callback passed into Mutator.Deterministic reaches
// the dynamic call inside it.
func (b *builder) flowCallArgs(pkg *analysis.Package, call *ast.CallExpr) {
	sig := b.staticCalleeSig(pkg, call)
	if sig == nil {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var param *types.Var
		switch {
		case i < params.Len()-1 || (i < params.Len() && !sig.Variadic()):
			param = params.At(i)
		case params.Len() > 0:
			param = params.At(params.Len() - 1) // variadic tail
		}
		if param != nil {
			b.flowInto(pkg, param, arg)
		}
	}
}

// staticCalleeSig returns the signature of a call whose callee resolves to a
// declared module function or a function literal — the cases where parameter
// objects are part of the analyzed syntax.
func (b *builder) staticCalleeSig(pkg *analysis.Package, call *ast.CallExpr) *types.Signature {
	info := pkg.Info
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok && b.g.NodeFor(fn) != nil {
			return fn.Type().(*types.Signature)
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok && b.g.NodeFor(fn) != nil {
				return fn.Type().(*types.Signature)
			}
			return nil
		}
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok && b.g.NodeFor(fn) != nil {
			return fn.Type().(*types.Signature)
		}
	case *ast.FuncLit:
		if tv, ok := info.Types[fun]; ok {
			if sig, ok := tv.Type.(*types.Signature); ok {
				return sig
			}
		}
	}
	return nil
}

// propagate runs the object-to-object copy relation to a fixpoint, so
// sources assigned into a field reach the parameters it is later passed to.
func (b *builder) propagate() {
	work := make([]types.Object, 0, len(b.sources))
	for obj := range b.sources {
		work = append(work, obj)
	}
	for len(work) > 0 {
		obj := work[len(work)-1]
		work = work[:len(work)-1]
		for _, dst := range b.flowsInto[obj] {
			changed := false
			for n := range b.sources[obj] {
				if set := b.sources[dst]; set == nil || !set[n] {
					b.addSource(dst, n)
					changed = true
				}
			}
			if changed {
				work = append(work, dst)
			}
		}
	}
}

// --- edge construction -----------------------------------------------------

// buildEdges resolves every call in the node's own body (nested literals are
// their own nodes and are skipped).
func (b *builder) buildEdges(n *Node) {
	body := n.Body()
	if body == nil {
		return
	}
	ast.Inspect(body, func(node ast.Node) bool {
		if lit, ok := node.(*ast.FuncLit); ok {
			// A literal in call position still produces an edge from this
			// node (handled at its CallExpr); its body belongs to its own
			// node either way.
			_ = lit
			return false
		}
		if call, ok := node.(*ast.CallExpr); ok {
			b.resolveCall(n, call)
			// Keep descending: arguments may contain further calls. The
			// callee literal, if any, is cut off by the FuncLit case above.
		}
		return true
	})
}

func (b *builder) addEdge(n *Node, callee *Node, site token.Pos, kind EdgeKind) {
	if callee == nil {
		return
	}
	n.Out = append(n.Out, Edge{Callee: callee, Site: site, Kind: kind})
}

func (b *builder) resolveCall(n *Node, call *ast.CallExpr) {
	info := n.Pkg.Info
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return // conversion, not a call
	}
	fun := ast.Unparen(call.Fun)
	// Generic instantiation syntax: f[T](...) — resolve through the index.
	switch idx := fun.(type) {
	case *ast.IndexExpr:
		if tv, ok := info.Types[idx.X]; ok {
			if _, isSig := typeUnder(tv.Type).(*types.Signature); isSig {
				fun = ast.Unparen(idx.X)
			}
		}
	case *ast.IndexListExpr:
		fun = ast.Unparen(idx.X)
	}

	switch f := fun.(type) {
	case *ast.Ident:
		switch obj := info.Uses[f].(type) {
		case *types.Builtin:
			return
		case *types.Func:
			b.addEdge(n, b.g.NodeFor(obj), call.Pos(), EdgeStatic)
			return
		case *types.Var:
			b.dynamicCall(n, call, obj)
			return
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[f]; ok {
			switch sel.Kind() {
			case types.MethodVal, types.MethodExpr:
				fn := sel.Obj().(*types.Func)
				if iface, ok := typeUnder(sel.Recv()).(*types.Interface); ok {
					b.interfaceCall(n, call, iface, fn.Name())
					return
				}
				b.addEdge(n, b.g.NodeFor(fn), call.Pos(), EdgeStatic)
				return
			case types.FieldVal:
				b.dynamicCall(n, call, sel.Obj())
				return
			}
			return
		}
		// Qualified: pkg.F(...) or pkg.Var(...).
		switch obj := info.Uses[f.Sel].(type) {
		case *types.Func:
			b.addEdge(n, b.g.NodeFor(obj), call.Pos(), EdgeStatic)
			return
		case *types.Var:
			b.dynamicCall(n, call, obj)
			return
		}
	case *ast.FuncLit:
		b.addEdge(n, b.g.byLit[f], call.Pos(), EdgeStatic)
		return
	}
	// Anything else — a call of a call's result, an indexed function slice,
	// a received channel value — resolves by signature fallback.
	b.signatureFallback(n, call)
}

// dynamicCall links a call through a function-valued object to its tracked
// sources, or falls back to signature matching when tracking found nothing.
func (b *builder) dynamicCall(n *Node, call *ast.CallExpr, obj types.Object) {
	if set := b.sources[obj]; len(set) > 0 {
		for _, callee := range sortedNodes(set) {
			b.addEdge(n, callee, call.Pos(), EdgeFuncValue)
		}
		return
	}
	b.signatureFallback(n, call)
}

// interfaceCall links an interface method call to the matching method of
// every in-module named type that satisfies the interface.
func (b *builder) interfaceCall(n *Node, call *ast.CallExpr, iface *types.Interface, method string) {
	for _, named := range b.namedTypes {
		var recv types.Type = named
		if !types.Implements(recv, iface) {
			ptr := types.NewPointer(named)
			if !types.Implements(ptr, iface) {
				continue
			}
			recv = ptr
		}
		obj, _, _ := types.LookupFieldOrMethod(recv, true, named.Obj().Pkg(), method)
		if fn, ok := obj.(*types.Func); ok {
			b.addEdge(n, b.g.NodeFor(fn), call.Pos(), EdgeInterface)
		}
	}
}

// signatureFallback links the call to every address-taken function whose
// signature is identical to the callee expression's type — the conservative
// answer for values the flow tracking cannot follow.
func (b *builder) signatureFallback(n *Node, call *ast.CallExpr) {
	tv, ok := n.Pkg.Info.Types[call.Fun]
	if !ok {
		return
	}
	sig, ok := typeUnder(tv.Type).(*types.Signature)
	if !ok {
		return
	}
	for _, cand := range b.g.Nodes {
		if !b.addrTaken[cand] {
			continue
		}
		if sigCompatible(nodeSignature(cand), sig) {
			b.addEdge(n, cand, call.Pos(), EdgeFuncValue)
		}
	}
}

func nodeSignature(n *Node) *types.Signature {
	if n.Func != nil {
		return n.Func.Type().(*types.Signature)
	}
	if tv, ok := n.Pkg.Info.Types[n.Lit]; ok {
		if sig, ok := tv.Type.(*types.Signature); ok {
			return sig
		}
	}
	return nil
}

// sigCompatible compares parameter and result types, ignoring receivers (a
// bound method value has the receiver folded away).
func sigCompatible(a, b *types.Signature) bool {
	if a == nil || b == nil {
		return false
	}
	if a.Variadic() != b.Variadic() ||
		a.Params().Len() != b.Params().Len() ||
		a.Results().Len() != b.Results().Len() {
		return false
	}
	for i := 0; i < a.Params().Len(); i++ {
		if !types.Identical(a.Params().At(i).Type(), b.Params().At(i).Type()) {
			return false
		}
	}
	for i := 0; i < a.Results().Len(); i++ {
		if !types.Identical(a.Results().At(i).Type(), b.Results().At(i).Type()) {
			return false
		}
	}
	return true
}

// sortedNodes returns the set's nodes in graph order for deterministic edges.
func sortedNodes(set map[*Node]bool) []*Node {
	out := make([]*Node, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	// Insertion sort on Name(): sets are tiny (devirtualized callbacks have
	// one or two sources).
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1].name > out[j].name; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

func typeUnder(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	return t.Underlying()
}
