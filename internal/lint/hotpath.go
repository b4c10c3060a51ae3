package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// hotpathAnnotation marks a function as a zero-allocation hot path.
const hotpathAnnotation = "//bb:hotpath"

// HotPathAlloc rejects per-call heap allocation constructs in functions
// annotated //bb:hotpath — the per-token detect/encrypt loops, where
// buffer churn once cost more than the AES work it carried.
//
// Flagged constructs, each of which forces (or in append's case, risks)
// a heap allocation on every call:
//
//   - append — growth reallocates; hot paths must use pooled or
//     preallocated buffers sized up front,
//   - make and map/slice literals — fresh backing store per call,
//   - func literals — closures capture by reference and escape,
//   - string(byteslice) / []byte(string) conversions — always copy,
//   - interface boxing of non-pointer-shaped values (passing or assigning
//     an int, struct, slice or string into an interface allocates the
//     boxed copy; pointers, maps, chans and funcs are exempt because they
//     are already pointer-shaped).
//
// Amortized allocations that a human has reasoned about (e.g. an append
// into a reused scratch buffer that reaches steady-state capacity) are
// suppressed in source with //lint:ignore hotpath-alloc <reason>.
type HotPathAlloc struct{}

// ID implements Rule.
func (r *HotPathAlloc) ID() string { return "hotpath-alloc" }

// Doc implements Rule.
func (r *HotPathAlloc) Doc() string {
	return "//bb:hotpath functions must not contain per-call heap allocation constructs"
}

// Check implements Rule.
func (r *HotPathAlloc) Check(pkg *Package, report Reporter) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isHotPath(fd) {
				continue
			}
			r.checkBody(pkg, fd.Body, report)
		}
	}
}

// isHotPath reports whether the function carries a //bb:hotpath annotation.
func isHotPath(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(c.Text, hotpathAnnotation) {
			return true
		}
	}
	return false
}

// checkBody walks one hot-path body reporting allocation constructs.
func (r *HotPathAlloc) checkBody(pkg *Package, body *ast.BlockStmt, report Reporter) {
	info := pkg.Info
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.CallExpr:
			r.checkCall(info, v, report)
		case *ast.CompositeLit:
			switch typeOf(info, v).Underlying().(type) {
			case *types.Map:
				report(v, "map literal allocates on the hot path; hoist it out of the per-token loop")
			case *types.Slice:
				report(v, "slice literal allocates on the hot path; use a pooled or preallocated buffer")
			}
		case *ast.FuncLit:
			report(v, "closure literal allocates on the hot path; hoist it to a method or package function")
		case *ast.AssignStmt:
			for i, lhs := range v.Lhs {
				if i < len(v.Rhs) {
					r.checkBoxing(info, lhsType(info, lhs), v.Rhs[i], report)
				}
			}
		case *ast.ValueSpec:
			for i, name := range v.Names {
				if i < len(v.Values) {
					if obj := info.Defs[name]; obj != nil {
						r.checkBoxing(info, obj.Type(), v.Values[i], report)
					}
				}
			}
		}
		return true
	})
}

// checkCall flags allocating calls: append, make, alloc-forcing string
// conversions, and interface boxing at argument positions.
func (r *HotPathAlloc) checkCall(info *types.Info, call *ast.CallExpr, report Reporter) {
	fun := ast.Unparen(call.Fun)

	// Conversions: string(byteslice) and []byte(string) copy their operand.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		dst, src := tv.Type, typeOf(info, call.Args[0])
		if src == nil {
			return
		}
		if isString(dst) && isByteOrRuneSlice(src) {
			report(call, "string(%s) conversion copies and allocates on the hot path", src)
		} else if isByteOrRuneSlice(dst) && isString(src) {
			report(call, "%s(string) conversion copies and allocates on the hot path", dst)
		}
		return
	}

	if id, ok := fun.(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "append":
				report(call, "append may grow a heap-allocated slice on the hot path; use a pooled or preallocated buffer")
			case "make":
				report(call, "make allocates on the hot path; hoist the buffer or take it from a pool")
			}
			return
		}
	}

	// Interface boxing at call-argument positions.
	sigType := typeOf(info, call.Fun)
	if sigType == nil {
		return
	}
	sig, ok := sigType.Underlying().(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		var param types.Type
		switch {
		case i < sig.Params().Len()-1 || (!sig.Variadic() && i < sig.Params().Len()):
			param = sig.Params().At(i).Type()
		case sig.Variadic():
			if call.Ellipsis.IsValid() {
				continue // slice passed through, no per-element boxing
			}
			if last, okS := sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice); okS {
				param = last.Elem()
			}
		}
		if param != nil {
			r.checkBoxing(info, param, arg, report)
		}
	}
}

// lhsType resolves the static type of an assignment's left-hand side.
// Plain identifiers on the LHS are declaration/use sites recorded in
// Defs/Uses rather than the Types map, so they need object resolution.
func lhsType(info *types.Info, e ast.Expr) types.Type {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		if obj := info.Defs[id]; obj != nil {
			return obj.Type()
		}
		if obj := info.Uses[id]; obj != nil {
			return obj.Type()
		}
		return nil
	}
	return typeOf(info, e)
}

// checkBoxing reports a non-pointer-shaped concrete value converted into an
// interface (which heap-allocates the boxed copy).
func (r *HotPathAlloc) checkBoxing(info *types.Info, dst types.Type, src ast.Expr, report Reporter) {
	if dst == nil {
		return
	}
	if _, ok := dst.Underlying().(*types.Interface); !ok {
		return
	}
	st := typeOf(info, src)
	if st == nil || isUntypedNil(st) {
		return
	}
	if _, ok := st.(*types.Tuple); ok {
		return // comma-ok / multi-value RHS: no conversion at this node
	}
	if tv, ok := info.Types[src]; ok && tv.IsNil() {
		return
	}
	switch st.Underlying().(type) {
	case *types.Interface, *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return // pointer-shaped: interface conversion does not allocate
	}
	report(src, "interface boxing of %s allocates on the hot path", st)
}

// isString reports whether t's underlying type is string.
func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isByteOrRuneSlice reports whether t is a []byte or []rune variant.
func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune)
}
