package analyzers

import (
	"go/ast"
	"go/token"

	"cobra/internal/vet"
)

// ArenaEscape enforces the morsel-arena borrowing discipline: scratch
// obtained from a GetArena() handle (Ints, Int64s, Floats, IntSlots,
// StrSlots) is valid only until the handle is
// released with PutArena or Reset, and only inside the scope that
// borrowed it. Three ways of breaking that are reported:
//
//   - returning an arena buffer to the caller,
//   - storing one into a longer-lived structure (an element or field
//     assignment) instead of copying it out exact-size with
//     append([]T(nil), buf...),
//   - touching the buffer — or the handle itself — after PutArena or
//     Reset released it.
//
// The analysis is scoped per function body (function literals form
// their own scopes): the kernel borrows and returns an arena within
// one morsel callback, so a handle's whole life is syntactically
// visible where it was borrowed.
var ArenaEscape = &vet.Analyzer{
	Name: "arenaescape",
	Code: "CV013",
	Doc: "report arena scratch that outlives its arena: buffers returned " +
		"or stored past the borrowing scope, or used after PutArena/Reset",
	Run: runArenaEscape,
}

// arenaBufMethods are the Arena methods that hand out arena-backed
// scratch. Lookup tables (the *Slots maps) follow the same lifetime
// rule as the slices.
var arenaBufMethods = map[string]bool{
	"Ints": true, "Int64s": true, "Floats": true,
	"IntSlots": true, "StrSlots": true,
}

func runArenaEscape(pass *vet.Pass) error {
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkArenaScope(pass, fn.Body)
				}
			case *ast.FuncLit:
				checkArenaScope(pass, fn.Body)
			}
			return true
		})
	}
	return nil
}

// scopeInspect walks body without descending into nested function
// literals — each literal is its own arena scope, visited separately
// by runArenaEscape.
func scopeInspect(body *ast.BlockStmt, f func(n ast.Node) bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return f(n)
	})
}

// checkArenaScope applies the borrowing rules to one function body.
func checkArenaScope(pass *vet.Pass, body *ast.BlockStmt) {
	// Pass 1: the handles borrowed in this scope (a := GetArena()).
	arenas := map[string]bool{}
	scopeInspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if ok && id.Name != "_" && isFuncCallNamed(as.Rhs[0], "GetArena") {
			arenas[id.Name] = true
		}
		return true
	})
	if len(arenas) == 0 {
		return
	}

	// Pass 2: the buffers those handles lent out, and where each handle
	// was released (the first non-deferred PutArena/Reset).
	buffers := map[string]string{} // buffer local -> handle name
	released := map[string]token.Pos{}
	scopeInspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if len(st.Lhs) != 1 || len(st.Rhs) != 1 {
				return true
			}
			id, ok := st.Lhs[0].(*ast.Ident)
			if !ok || id.Name == "_" {
				return true
			}
			if h := arenaBufSource(st.Rhs[0], arenas); h != "" {
				buffers[id.Name] = h
			}
		case *ast.DeferStmt:
			return false // a deferred release runs at scope exit: nothing is "after" it
		case *ast.CallExpr:
			if h := releasedHandle(st, arenas); h != "" {
				if p, ok := released[h]; !ok || st.End() < p {
					released[h] = st.End()
				}
			}
		}
		return true
	})

	// Pass 3: escapes and use-after-release. This walk descends into
	// nested literals too — returning or storing a captured buffer from
	// a closure leaks it just the same.
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.ReturnStmt:
			for _, r := range st.Results {
				if id, ok := r.(*ast.Ident); ok {
					if h, tracked := buffers[id.Name]; tracked {
						pass.Reportf(id.Pos(),
							"arena buffer %q (from %s) escapes via return; copy it out with append([]T(nil), %s...)",
							id.Name, h, id.Name)
					}
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range st.Rhs {
				id, ok := rhs.(*ast.Ident)
				if !ok || i >= len(st.Lhs) {
					continue
				}
				h, tracked := buffers[id.Name]
				if !tracked {
					continue
				}
				switch st.Lhs[i].(type) {
				case *ast.IndexExpr, *ast.SelectorExpr, *ast.StarExpr:
					pass.Reportf(rhs.Pos(),
						"arena buffer %q (from %s) stored into a longer-lived structure; copy it out with append([]T(nil), %s...)",
						id.Name, h, id.Name)
				}
			}
		case *ast.Ident:
			h, tracked := buffers[st.Name]
			if !tracked {
				if arenas[st.Name] {
					h = st.Name
				} else {
					return true
				}
			}
			if p, ok := released[h]; ok && st.Pos() > p {
				pass.Reportf(st.Pos(), "%q used after its arena %q was released with PutArena/Reset", st.Name, h)
			}
		}
		return true
	})
}

// arenaBufSource reports which tracked handle the expression borrows
// scratch from: it unwraps slice/index expressions (the ls :=
// a.Ints(n)[:0] idiom) down to a <handle>.<bufMethod>(...) call.
func arenaBufSource(e ast.Expr, arenas map[string]bool) string {
	for {
		switch x := e.(type) {
		case *ast.SliceExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.CallExpr:
			sel, ok := x.Fun.(*ast.SelectorExpr)
			if !ok || !arenaBufMethods[sel.Sel.Name] {
				return ""
			}
			id, ok := sel.X.(*ast.Ident)
			if ok && arenas[id.Name] {
				return id.Name
			}
			return ""
		default:
			return ""
		}
	}
}

// releasedHandle reports which tracked handle the call releases:
// PutArena(a), monet.PutArena(a), or a.Reset().
func releasedHandle(call *ast.CallExpr, arenas map[string]bool) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if fun.Name == "PutArena" {
			return releaseArg(call, arenas)
		}
	case *ast.SelectorExpr:
		if fun.Sel.Name == "PutArena" {
			return releaseArg(call, arenas)
		}
		if fun.Sel.Name == "Reset" {
			if id, ok := fun.X.(*ast.Ident); ok && arenas[id.Name] {
				return id.Name
			}
		}
	}
	return ""
}

func releaseArg(call *ast.CallExpr, arenas map[string]bool) string {
	if len(call.Args) == 1 {
		if id, ok := call.Args[0].(*ast.Ident); ok && arenas[id.Name] {
			return id.Name
		}
	}
	return ""
}

// isFuncCallNamed matches f(...) / pkg.f(...) by name.
func isFuncCallNamed(e ast.Expr, name string) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == name
	case *ast.SelectorExpr:
		return fun.Sel.Name == name
	}
	return false
}
