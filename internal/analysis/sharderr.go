package analysis

// sharderr: the shard runtime's resources are processes, pipes and
// goroutine fleets — a Pool or WorkerPool that is never Closed leaks
// workers for the life of the coordinator, and a silently discarded
// error from a shard API hides exactly the worker deaths and transport
// failures the equivalence contract depends on surfacing. The analyzer
// enforces two rules on the shard/runtime API surface:
//
//  1. a locally created closeable (shard.Pool, WorkerPool, a dialed
//     shard.Conn) must have Close referenced in the same function
//     or escape it (returned, stored, passed on) — and when the function
//     has multiple exit paths after the creation, the Close must be
//     deferred, or early returns leak the fleet;
//  2. an error-returning call into the shard package (or a method on one
//     of its types) must not be discarded as a bare statement; assigning
//     to _ is the explicit, greppable waiver.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ShardErr is the sharderr analyzer.
var ShardErr = &Analyzer{
	Name: "sharderr",
	Doc: "flag leaked shard pools/transports and discarded shard API errors\n\n" +
		"Anything dialed or spawned by the shard runtime must be Closed on every path\n" +
		"(defer it when the function returns more than once), and errors returned by shard\n" +
		"APIs must be handled or explicitly assigned to _ — a bare call statement loses\n" +
		"worker-death and transport failures.",
	Run: runShardErr,
}

// shardPkgSuffix scopes the analyzer to the shard runtime package.
const shardPkgSuffix = "internal/shard"

// closeableNames are module types outside internal/shard that own a
// worker fleet and must be closed (the public API wrapper).
var closeableNames = map[string]bool{"WorkerPool": true}

func runShardErr(pass *Pass) error {
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		// Walk every function body independently.
		WalkStack(f, func(n ast.Node, stack []ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body != nil {
				checkDiscardedErrors(pass, body)
				checkMissingClose(pass, body)
			}
			return true
		})
	}
	return nil
}

// isShardPath reports whether a package path belongs to the shard
// runtime surface.
func isShardPath(path string) bool {
	return PathHasSuffix(path, shardPkgSuffix)
}

// closeableType reports whether t (after pointer deref) is a type whose
// values own shard resources: any named type in internal/shard with a
// Close method, or a module type named in closeableNames with a Close
// method (perfxplain.WorkerPool), or an interface
// from internal/shard with Close in its method set.
func closeableType(t types.Type) (name string, ok bool) {
	if t == nil {
		return "", false
	}
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed || named.Obj().Pkg() == nil {
		return "", false
	}
	if !hasCloseMethod(named) {
		return "", false
	}
	path := named.Obj().Pkg().Path()
	if isShardPath(path) || closeableNames[named.Obj().Name()] {
		return named.Obj().Name(), true
	}
	return "", false
}

func hasCloseMethod(named *types.Named) bool {
	if iface, ok := named.Underlying().(*types.Interface); ok {
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == "Close" {
				return true
			}
		}
		return false
	}
	for _, t := range []types.Type{named, types.NewPointer(named)} {
		ms := types.NewMethodSet(t)
		for i := 0; i < ms.Len(); i++ {
			if ms.At(i).Obj().Name() == "Close" {
				return true
			}
		}
	}
	return false
}

// shardAPICall reports whether the call resolves to a function or
// method of the shard package (or a method on a closeable wrapper) that
// returns an error as its last result.
func shardAPICall(pass *Pass, call *ast.CallExpr) (*types.Func, bool) {
	fn := CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return nil, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return nil, false
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	if !types.Identical(last, types.Universe.Lookup("error").Type()) {
		return nil, false
	}
	if isShardPath(fn.Pkg().Path()) {
		return fn, true
	}
	if recv := sig.Recv(); recv != nil {
		if _, ok := closeableType(recv.Type()); ok {
			return fn, true
		}
	}
	return nil, false
}

// checkDiscardedErrors flags bare-statement and bare-defer calls to
// error-returning shard APIs.
func checkDiscardedErrors(pass *Pass, body *ast.BlockStmt) {
	for _, st := range body.List {
		switch st := st.(type) {
		case *ast.ExprStmt:
			if call, ok := st.X.(*ast.CallExpr); ok {
				if fn, ok := shardAPICall(pass, call); ok {
					pass.Reportf(st.Pos(), "result of %s.%s is discarded: shard errors carry worker deaths and transport failures; handle the error or assign it to _ explicitly", fn.Pkg().Name(), fn.Name())
				}
			}
		case *ast.DeferStmt:
			if fn, ok := shardAPICall(pass, st.Call); ok {
				pass.Reportf(st.Pos(), "deferred %s.%s discards its error; wrap it in a func literal that handles or explicitly discards it", fn.Pkg().Name(), fn.Name())
			}
		case *ast.BlockStmt:
			checkDiscardedErrors(pass, st)
		case *ast.IfStmt:
			checkDiscardedErrors(pass, st.Body)
			if els, ok := st.Else.(*ast.BlockStmt); ok {
				checkDiscardedErrors(pass, els)
			}
		case *ast.ForStmt:
			checkDiscardedErrors(pass, st.Body)
		case *ast.RangeStmt:
			checkDiscardedErrors(pass, st.Body)
		case *ast.SwitchStmt:
			for _, c := range st.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					checkDiscardedErrors(pass, &ast.BlockStmt{List: cc.Body})
				}
			}
		case *ast.TypeSwitchStmt:
			for _, c := range st.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					checkDiscardedErrors(pass, &ast.BlockStmt{List: cc.Body})
				}
			}
		case *ast.SelectStmt:
			for _, c := range st.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					checkDiscardedErrors(pass, &ast.BlockStmt{List: cc.Body})
				}
			}
		case *ast.LabeledStmt:
			checkDiscardedErrors(pass, &ast.BlockStmt{List: []ast.Stmt{st.Stmt}})
		}
	}
}

// creation describes one locally created closeable value.
type creation struct {
	obj      types.Object
	typeName string
	pos      token.Pos
}

// checkMissingClose finds closeable values created and bound to local
// variables in body and verifies each is closed or escapes. The walk
// deliberately does not descend into nested function literals — they
// are visited as their own bodies.
func checkMissingClose(pass *Pass, body *ast.BlockStmt) {
	var created []creation
	shallowInspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || (as.Tok != token.DEFINE && as.Tok != token.ASSIGN) {
			return true
		}
		// Match x, err := NewPool(...), x := Dial(...), and
		// x := &shard.Pool{...} forms: a single RHS that constructs a
		// closeable value.
		if len(as.Rhs) != 1 {
			return true
		}
		switch rhs := ast.Unparen(as.Rhs[0]).(type) {
		case *ast.CallExpr:
			if CalleeFunc(pass.TypesInfo, rhs) == nil {
				return true // conversions, func values
			}
		case *ast.CompositeLit:
		case *ast.UnaryExpr:
			if rhs.Op != token.AND {
				return true
			}
			if _, ok := ast.Unparen(rhs.X).(*ast.CompositeLit); !ok {
				return true
			}
		default:
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := pass.TypesInfo.ObjectOf(id)
			if obj == nil || obj.Pos() != id.Pos() {
				continue // only track fresh definitions
			}
			if name, ok := closeableType(obj.Type()); ok {
				_ = i
				created = append(created, creation{obj: obj, typeName: name, pos: id.Pos()})
			}
		}
		return true
	})
	if len(created) == 0 {
		return
	}
	for _, c := range created {
		use := classifyUses(pass, body, c.obj)
		switch {
		case use.escapes:
			// Ownership moved: the receiver closes it.
		case !use.closed:
			pass.Reportf(c.pos, "%s is never closed and does not escape this function: the worker fleet leaks; defer %s.Close()", c.obj.Name(), c.obj.Name())
		case !use.deferred && returnsAfter(body, c.pos) > 1:
			pass.Reportf(c.pos, "%s.Close is not deferred but the function returns on multiple paths after the pool is created; an early return leaks the workers — use defer %s.Close()", c.obj.Name(), c.obj.Name())
		}
	}
}

// usage summarizes how a tracked object is used within one body.
type usage struct {
	closed   bool // v.Close referenced anywhere (call, defer, method value)
	deferred bool // defer v.Close(...) or defer func{... v.Close ...}
	escapes  bool // returned, passed as argument, stored, aliased, sent
}

func classifyUses(pass *Pass, body *ast.BlockStmt, obj types.Object) usage {
	var u usage
	WalkStack(body, func(n ast.Node, stack []ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || pass.TypesInfo.ObjectOf(id) != obj || id.Pos() == obj.Pos() {
			return true
		}
		// Direct parent decides the use.
		parent := ast.Node(nil)
		if len(stack) > 0 {
			parent = stack[len(stack)-1]
		}
		if sel, ok := parent.(*ast.SelectorExpr); ok && sel.X == id {
			if sel.Sel.Name == "Close" {
				u.closed = true
				for _, anc := range stack {
					if _, isDefer := anc.(*ast.DeferStmt); isDefer {
						u.deferred = true
					}
				}
				return true
			}
			return true // other method use — receiver use is not escape
		}
		switch p := parent.(type) {
		case *ast.CallExpr:
			for _, a := range p.Args {
				if a == ast.Expr(id) {
					u.escapes = true
				}
			}
		case *ast.ReturnStmt, *ast.CompositeLit, *ast.SendStmt, *ast.KeyValueExpr:
			u.escapes = true
		case *ast.UnaryExpr:
			if p.Op == token.AND {
				u.escapes = true
			}
		case *ast.AssignStmt:
			for _, r := range p.Rhs {
				if ast.Unparen(r) == ast.Expr(id) {
					u.escapes = true // aliased or stored somewhere else
				}
			}
			for _, l := range p.Lhs {
				if idx, ok := l.(*ast.IndexExpr); ok && idx.X == ast.Expr(id) {
					u.escapes = true
				}
			}
		case *ast.IndexExpr:
			// v[i] on something closeable cannot happen; ignore.
		}
		return true
	})
	return u
}

// returnsAfter counts return statements (outside nested function
// literals) positioned after pos — plus one for falling off the end of
// the body, when the last statement is not a return.
func returnsAfter(body *ast.BlockStmt, pos token.Pos) int {
	n := 0
	shallowInspect(body, func(nd ast.Node) bool {
		if r, ok := nd.(*ast.ReturnStmt); ok && r.Pos() > pos {
			n++
		}
		return true
	})
	if len(body.List) == 0 {
		return n + 1
	}
	if _, ok := body.List[len(body.List)-1].(*ast.ReturnStmt); !ok {
		n++
	}
	return n
}

// shallowInspect is ast.Inspect that does not descend into nested
// function literals.
func shallowInspect(root ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(root, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n != root {
			return false
		}
		if n == nil {
			return false
		}
		return fn(n)
	})
}
