package lintkit

import (
	"go/ast"
	"go/token"
	"strings"
)

// Locks enforces Lock/Unlock pairing everywhere: every Lock/RLock call
// must have a matching Unlock/RUnlock on the same receiver within the
// function, and a non-deferred unlock must not have a return between
// the lock and the unlock. By-value copies of lock-bearing types are
// go vet's copylocks check, which CI runs beside atomlint (the
// lockcopy fixture pins that vet flags them).
//
// Cross-function lock handoffs are rare and deliberate — suppress those
// sites with //atomlint:ignore locks <reason>.
var Locks = &Analyzer{
	Name: "locks",
	Doc:  "flag unbalanced Lock/Unlock pairs",
	Run:  runLocks,
}

func runLocks(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkLockPairing(pass, fd)
			}
		}
	}
}

// lockCall describes one Lock/Unlock-family call site.
type lockCall struct {
	recv     string // receiver expression text, e.g. "sh.mu"
	read     bool   // RLock/RUnlock
	pos      token.Pos
	deferred bool
}

// checkLockPairing matches Lock calls to Unlocks per receiver text.
func checkLockPairing(pass *Pass, fd *ast.FuncDecl) {
	var locks, unlocks []lockCall
	var returns []token.Pos

	var inDefer func(parents []ast.Node) bool
	inDefer = func(parents []ast.Node) bool {
		for _, p := range parents {
			if _, ok := p.(*ast.DeferStmt); ok {
				return true
			}
		}
		return false
	}

	walkParents(fd.Body, func(n ast.Node, parents []ast.Node) bool {
		switch v := n.(type) {
		case *ast.ReturnStmt:
			returns = append(returns, v.Pos())
		case *ast.CallExpr:
			sel, ok := v.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			name := sel.Sel.Name
			if name != "Lock" && name != "RLock" && name != "Unlock" && name != "RUnlock" {
				return true
			}
			// Only sync-ish receivers: the method must take no args.
			if len(v.Args) != 0 {
				return true
			}
			c := lockCall{
				recv:     exprText(pass.Pkg.Fset, sel.X),
				read:     strings.HasPrefix(name, "R"),
				pos:      v.Pos(),
				deferred: inDefer(parents),
			}
			if strings.HasSuffix(name, "Unlock") {
				unlocks = append(unlocks, c)
			} else {
				locks = append(locks, c)
			}
		}
		return true
	})

	for _, l := range locks {
		kind := "Lock"
		if l.read {
			kind = "RLock"
		}
		// The matching unlock: same receiver text, same read/write flavor.
		var after []lockCall
		found := false
		for _, u := range unlocks {
			if u.recv == l.recv && u.read == l.read {
				found = true
				if u.pos > l.pos || u.deferred {
					after = append(after, u)
				}
			}
		}
		if !found {
			pass.Reportf(l.pos, "%s.%s has no matching %sUnlock in this function (cross-function handoffs need an //atomlint:ignore locks)", l.recv, kind, rPrefix(l.read))
			continue
		}
		if len(after) == 0 {
			pass.Reportf(l.pos, "%s.%s is only unlocked before it is taken", l.recv, kind)
			continue
		}
		// A deferred unlock covers every return path. Otherwise no return
		// may sit between the lock and its first subsequent unlock.
		deferred := false
		first := token.Pos(-1)
		for _, u := range after {
			if u.deferred {
				deferred = true
			}
			if !u.deferred && (first == -1 || u.pos < first) {
				first = u.pos
			}
		}
		if deferred {
			continue
		}
		for _, r := range returns {
			if r > l.pos && r < first {
				pass.Reportf(r, "return between %s.%s and its %sUnlock leaves the lock held", l.recv, kind, rPrefix(l.read))
			}
		}
	}
}

func rPrefix(read bool) string {
	if read {
		return "R"
	}
	return ""
}
