// Package kernelparity enforces the word-kernel contract of internal/core:
// every word-level map kernel must keep its scalar reference alive and both
// must be pinned by a differential fuzz target, so the two can never drift
// apart silently (the property BigMap §IV rests on — the word-level fast
// paths must be byte-for-byte equivalent to the obvious per-byte loops).
//
// Detection is by convention, the same one kernels.go documents:
//
//   - a word-level kernel is a package-level function (outside test files)
//     that reads or writes a 64-bit word of a byte slice: it calls loadWord
//     or storeWord — the 8-byte accessors every word traversal goes
//     through — or encoding/binary's byte-order Uint64/PutUint64, which a
//     kernel could use instead and so escape the rule;
//   - its scalar reference is the function named after it with the "Region"
//     suffix replaced by "Scalar" (classifyRegion → classifyScalar,
//     lastNonZero → lastNonZeroScalar);
//   - both must be statically reachable from a Fuzz* function in the
//     package's test files (directly or through helpers), which is what
//     "pinned by the differential fuzzer" means.
//
// loadWord/storeWord themselves, *Scalar functions and wire codecs (names
// starting with encode/Encode/decode/Decode, whose word reads parse a
// format rather than traverse a map; codecsymmetry checks those) are exempt
// from kernel detection.
package kernelparity

import (
	"go/ast"
	"go/types"
	"strings"

	"github.com/bigmap/bigmap/internal/analysis"
)

// Analyzer is the kernel-parity checker.
var Analyzer = &analysis.Analyzer{
	Name:      "kernelparity",
	Doc:       "every word-level kernel (calls loadWord/storeWord or binary's Uint64/PutUint64) needs a <name>Scalar reference and a fuzz target reaching both",
	Directive: "kernel-ok",
	Run:       run,
}

func run(pass *analysis.Pass) error {
	decls := make(map[types.Object]*ast.FuncDecl) // package-level funcs, incl. test helpers
	var kernels []*ast.FuncDecl
	byName := make(map[string]types.Object)
	var fuzzRoots []types.Object

	for _, f := range pass.Files {
		test := pass.IsTestFile(f)
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || fn.Recv != nil {
				continue
			}
			obj := pass.Info.Defs[fn.Name]
			if obj == nil {
				continue
			}
			decls[obj] = fn
			byName[fn.Name.Name] = obj
			if test && strings.HasPrefix(fn.Name.Name, "Fuzz") {
				fuzzRoots = append(fuzzRoots, obj)
			}
			if !test && isKernel(pass, fn) {
				kernels = append(kernels, fn)
			}
		}
	}

	reach := reachableFrom(pass, decls, fuzzRoots)

	for _, fn := range kernels {
		name := fn.Name.Name
		scalarName := strings.TrimSuffix(name, "Region") + "Scalar"
		scalar, ok := byName[scalarName]
		if !ok {
			pass.Reportf(fn.Pos(),
				"word-level kernel %s has no scalar reference %s; add the byte-at-a-time ground truth (kernels_scalar.go) so the differential fuzzer can pin it", name, scalarName)
			continue
		}
		obj := pass.Info.Defs[fn.Name]
		switch {
		case !reach[obj] && !reach[scalar]:
			pass.Reportf(fn.Pos(),
				"kernel %s and its scalar reference %s are not reached by any Fuzz target; wire both into the differential fuzzer", name, scalarName)
		case !reach[obj]:
			pass.Reportf(fn.Pos(),
				"kernel %s is not reached by any Fuzz target; wire it into the differential fuzzer", name)
		case !reach[scalar]:
			pass.Reportf(fn.Pos(),
				"scalar reference %s is not reached by any Fuzz target, so kernel %s is compared against nothing", scalarName, name)
		}
	}
	return nil
}

// isKernel reports whether fn reads or writes words of a byte slice (and
// is not one of the accessors, a scalar reference or a codec).
func isKernel(pass *analysis.Pass, fn *ast.FuncDecl) bool {
	name := fn.Name.Name
	if name == "loadWord" || name == "storeWord" || strings.HasSuffix(name, "Scalar") {
		return false
	}
	for _, prefix := range []string{"encode", "Encode", "decode", "Decode"} {
		if strings.HasPrefix(name, prefix) {
			return false
		}
	}
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isWordAccess(pass, call) {
			found = true
		}
		return !found
	})
	return found
}

// isWordAccess reports whether call is a 64-bit word access: the package's
// loadWord/storeWord, or a Uint64/PutUint64 method of an encoding/binary
// byte order (binary.LittleEndian.Uint64 and friends).
func isWordAccess(pass *analysis.Pass, call *ast.CallExpr) bool {
	if pkg, callee := analysis.CalleePkgFunc(pass.Info, call); pkg == pass.Pkg.Path() {
		return callee == "loadWord" || callee == "storeWord"
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	method, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok || method.Pkg() == nil || method.Pkg().Path() != "encoding/binary" {
		return false
	}
	return method.Name() == "Uint64" || method.Name() == "PutUint64"
}

// reachableFrom walks the static reference graph (any identifier use of a
// package-level function, not just direct calls) from the fuzz roots.
func reachableFrom(pass *analysis.Pass, decls map[types.Object]*ast.FuncDecl, roots []types.Object) map[types.Object]bool {
	edges := make(map[types.Object][]types.Object)
	for obj, fn := range decls {
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			used, ok := pass.Info.Uses[id]
			if ok {
				if _, isFunc := decls[used]; isFunc {
					edges[obj] = append(edges[obj], used)
				}
			}
			return true
		})
	}
	reach := make(map[types.Object]bool)
	var visit func(types.Object)
	visit = func(obj types.Object) {
		if reach[obj] {
			return
		}
		reach[obj] = true
		for _, next := range edges[obj] {
			visit(next)
		}
	}
	for _, root := range roots {
		visit(root)
	}
	return reach
}
