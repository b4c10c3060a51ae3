package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ChanLeak flags sends on an unbuffered channel that is local to one
// function and has no receiver anywhere in that function: the sending
// goroutine blocks forever. The check is deliberately conservative — any
// use that lets the channel escape (call argument, return, assignment,
// struct field, select send) disables it.
type ChanLeak struct{}

// ID implements Rule.
func (r *ChanLeak) ID() string { return "chan-leak" }

// Doc implements Rule.
func (r *ChanLeak) Doc() string {
	return "sends on a function-local unbuffered channel need a receiver in scope"
}

// Check implements Rule.
func (r *ChanLeak) Check(pkg *Package, report Reporter) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			r.checkFunc(pkg, fd.Body, report)
		}
	}
}

// chanUse tallies how one local channel is used within its function.
type chanUse struct {
	firstSend ast.Node
	sends     int
	receives  int
	escapes   bool
}

func (r *ChanLeak) checkFunc(pkg *Package, body *ast.BlockStmt, report Reporter) {
	// 1. Collect unbuffered channels created with ch := make(chan T).
	local := make(map[types.Object]*chanUse)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				continue
			}
			fn, ok := ast.Unparen(call.Fun).(*ast.Ident)
			if !ok || fn.Name != "make" {
				continue
			}
			if _, builtin := pkg.Info.Uses[fn].(*types.Builtin); !builtin {
				continue
			}
			if _, isChan := typeOf(pkg.Info, call).(*types.Chan); !isChan {
				continue
			}
			if len(call.Args) >= 2 && !isZeroConst(pkg.Info, call.Args[1]) {
				continue // buffered channel: sends may legitimately complete
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok && id.Name != "_" {
				if obj := pkg.Info.Defs[id]; obj != nil {
					local[obj] = &chanUse{}
				}
			}
		}
		return true
	})
	if len(local) == 0 {
		return
	}

	// 2. Classify every use with a parent/ancestor stack.
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if id, ok := n.(*ast.Ident); ok {
			if use, tracked := local[pkg.Info.Uses[id]]; tracked {
				r.classify(id, stack, use, n)
			}
		}
		stack = append(stack, n)
		return true
	})

	for _, use := range local {
		if use.sends > 0 && use.receives == 0 && !use.escapes {
			report(use.firstSend, "send on unbuffered channel with no receiver in this function; the goroutine blocks forever")
		}
	}
}

// classify folds one identifier use into the channel's tally. stack holds
// the ancestors of id (nearest last).
func (r *ChanLeak) classify(id *ast.Ident, stack []ast.Node, use *chanUse, n ast.Node) {
	parent := ast.Node(nil)
	if len(stack) > 0 {
		parent = stack[len(stack)-1]
	}
	inSelect := func() bool {
		for i := len(stack) - 1; i >= 0; i-- {
			if _, ok := stack[i].(*ast.CommClause); ok {
				return true
			}
		}
		return false
	}
	switch p := parent.(type) {
	case *ast.SendStmt:
		if p.Chan != ast.Expr(id) {
			use.escapes = true // the channel is the sent value
			return
		}
		if inSelect() {
			// A select send may have a default or other ready case; not a
			// guaranteed block.
			use.escapes = true
			return
		}
		use.sends++
		if use.firstSend == nil {
			use.firstSend = p
		}
	case *ast.UnaryExpr:
		if p.Op == token.ARROW {
			use.receives++
		} else {
			use.escapes = true
		}
	case *ast.RangeStmt:
		if p.X == ast.Expr(id) {
			use.receives++
		} else {
			use.escapes = true
		}
	case *ast.CallExpr:
		if fn, ok := ast.Unparen(p.Fun).(*ast.Ident); ok {
			switch fn.Name {
			case "close", "len", "cap":
				return // neutral
			}
		}
		use.escapes = true
	case *ast.BinaryExpr:
		// Comparisons (ch == nil) are neutral.
	default:
		use.escapes = true
	}
}

// isZeroConst reports whether e is the constant 0.
func isZeroConst(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	return tv.Value.String() == "0"
}

var _ Rule = (*ChanLeak)(nil)
