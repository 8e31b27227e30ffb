package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// lockorder builds a module-wide lock-acquisition graph over sync.Mutex /
// sync.RWMutex values and flags the two lock disciplines a deadlock needs
// broken: cyclic acquisition orders, and blocking while holding a lock.
//
// Nodes are canonical lock keys — a mutex field qualified by its defining
// type ("serve.Server.mu", however the field is reached) or a package-level
// mutex variable. An edge A -> B is recorded whenever B is acquired while A
// is held, in source order within one function; with the interprocedural
// layer on, a call made while A is held also contributes A -> L for every
// lock L in the callee's transitive Locks summary facet, which condenses
// the graph through the call graph. Any edge lying on a cycle (including a
// re-acquisition self-loop) is reported at its acquisition site.
//
// The blocking rule: a blocking comm operation (a send, receive or
// collective that needs matching progress on another rank), a channel
// send or receive, a select with no default, a range over a channel,
// sync.WaitGroup.Wait, or comm.World.Run/RunContext executed while any lock
// is held stalls every other user of that lock for as long as the operation
// blocks — and if the operation's completion needs the lock, deadlocks. A
// rank blocked in comm while holding a lock another rank needs deadlocks
// the whole World with no stack to show for it. Send counts as blocking
// even though this in-process runtime buffers unboundedly, because the
// invariant must hold under MPI rendezvous semantics, which the comm
// package models.
// sync.Cond.Wait is exempt with a single lock held (that is the Wait
// contract: it unlocks its own mutex while parked) but flagged when a
// second lock stays held across the park. The comm package itself is
// exempt from the blocking rule: its mailbox condition variables and
// channel hand-offs are the primitive being modeled, not a client bug.
var lockOrderAnalyzer = &Analyzer{
	Name:     "lockorder",
	Doc:      "flag cyclic lock-acquisition orders and locks held across blocking operations",
	Severity: SeverityError,
	Run:      runLockOrder,
}

const commPkgPath = "blocktri/internal/comm"

// blockingCommOps are the comm.Comm methods that require matching progress
// on another rank.
var blockingCommOps = map[string]bool{
	"Send": true, "SendOwned": true, "Recv": true, "SendRecv": true, "Exchange": true,
	"Barrier": true, "Bcast": true, "Allreduce": true, "Gather": true,
	"BcastMatrixInto": true,
}

// commOpName returns the name of the blocking comm operation a call
// invokes, or "" if the call is not one.
func commOpName(info *types.Info, call *ast.CallExpr) string {
	f := calleeFunc(info, call)
	if f == nil || funcPkgPath(f) != commPkgPath {
		return ""
	}
	if blockingCommOps[f.Name()] {
		return f.Name()
	}
	return ""
}

// syncLockKind classifies a call as a sync lock acquire (+1), release
// (-1), or neither (0).
func syncLockKind(info *types.Info, call *ast.CallExpr) int {
	f := calleeFunc(info, call)
	if f == nil || funcPkgPath(f) != "sync" {
		return 0
	}
	switch f.Name() {
	case "Lock", "RLock":
		return 1
	case "Unlock", "RUnlock":
		return -1
	}
	return 0
}

// lockEdge is the first-seen acquisition site of one ordered pair.
type lockEdge struct {
	pos token.Pos
}

func runLockOrder(m *Module) []Finding {
	p := &pass{m: m, name: "lockorder"}
	rep := newReporter(p)

	// edges[a][b]: b was acquired (or may be acquired by a callee) while a
	// was held; the first site observed is where the cycle is reported.
	edges := make(map[string]map[string]lockEdge)
	addEdge := func(from, to string, pos token.Pos) {
		m, ok := edges[from]
		if !ok {
			m = make(map[string]lockEdge)
			edges[from] = m
		}
		if _, seen := m[to]; !seen {
			m[to] = lockEdge{pos: pos}
		}
	}

	for _, pkg := range m.Pkgs {
		for _, file := range pkg.Files {
			eachFuncBody(file, func(body *ast.BlockStmt) {
				collectLockEdges(m, pkg.Info, body, addEdge)
				if pkg.Path != commPkgPath {
					checkBlockedHolders(rep, pkg.Info, body)
				}
			})
		}
	}

	reportLockCycles(rep, edges)
	return p.findings
}

// heldLock is one currently held lock in a source-order walk.
type heldLock struct {
	key    string // canonical global key, or a function-local display key
	global bool
	expr   string // display form as written
}

// lockRecv extracts the receiver expression of a sync Lock/Unlock call.
func lockRecv(call *ast.CallExpr) (ast.Expr, bool) {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	return sel.X, true
}

// heldKeyOf canonicalizes a lock receiver for held-set tracking: the global
// key when the mutex is module-visible, the printed expression otherwise.
func heldKeyOf(info *types.Info, recv ast.Expr) heldLock {
	if key, ok := globalLockKey(info, recv); ok {
		return heldLock{key: key, global: true, expr: types.ExprString(recv)}
	}
	return heldLock{key: "local:" + types.ExprString(recv), expr: types.ExprString(recv)}
}

// walkHeld walks one body in source order maintaining the held-lock set
// (defer Unlock keeps the lock held until function exit), invoking fn for
// every non-lock node with the current set. Lock acquisitions themselves
// are reported through acquire.
func walkHeld(info *types.Info, body *ast.BlockStmt, acquire func(held []heldLock, lk heldLock, call *ast.CallExpr), fn func(held []heldLock, n ast.Node) bool) {
	var held []heldLock
	inspectShallow(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			// defer mu.Unlock() releases only at function exit; other
			// deferred calls are not part of the statement flow.
			return false
		case *ast.CallExpr:
			if kind := syncLockKind(info, n); kind != 0 {
				recv, ok := lockRecv(n)
				if !ok {
					return true
				}
				lk := heldKeyOf(info, recv)
				if kind > 0 {
					if acquire != nil {
						acquire(held, lk, n)
					}
					held = append(held, lk)
				} else {
					for i := len(held) - 1; i >= 0; i-- {
						if held[i].key == lk.key {
							held = append(held[:i], held[i+1:]...)
							break
						}
					}
				}
				return true
			}
		}
		if fn != nil {
			return fn(held, n)
		}
		return true
	})
}

// collectLockEdges records held -> acquired edges and, when summaries are
// available, held -> callee-lock edges.
func collectLockEdges(m *Module, info *types.Info, body *ast.BlockStmt, addEdge func(from, to string, pos token.Pos)) {
	walkHeld(info, body,
		func(held []heldLock, lk heldLock, call *ast.CallExpr) {
			if !lk.global {
				return
			}
			for _, h := range held {
				if h.global {
					addEdge(h.key, lk.key, call.Pos())
				}
			}
		},
		func(held []heldLock, n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(held) == 0 {
				return true
			}
			f := calleeFunc(info, call)
			if f == nil || funcPkgPath(f) == "sync" {
				return true
			}
			sum := m.calleeSummary(f)
			if sum == nil {
				return true
			}
			for _, lock := range sum.Locks {
				for _, h := range held {
					if h.global {
						addEdge(h.key, lock, call.Pos())
					}
				}
			}
			return true
		})
}

// reportLockCycles reports every edge that lies on a cycle of the
// acquisition graph, at the edge's first acquisition site.
func reportLockCycles(rep *reporter, edges map[string]map[string]lockEdge) {
	reaches := func(from, to string) bool {
		seen := map[string]bool{from: true}
		stack := []string{from}
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if cur == to {
				return true
			}
			for next := range edges[cur] {
				if !seen[next] {
					seen[next] = true
					stack = append(stack, next)
				}
			}
		}
		return false
	}
	froms := make([]string, 0, len(edges))
	for from := range edges {
		froms = append(froms, from)
	}
	sort.Strings(froms)
	for _, from := range froms {
		tos := make([]string, 0, len(edges[from]))
		for to := range edges[from] {
			tos = append(tos, to)
		}
		sort.Strings(tos)
		for _, to := range tos {
			e := edges[from][to]
			if from == to {
				rep.reportf(e.pos, "lock %s acquired while already held (self-deadlock: sync mutexes are not reentrant)", shortLockKey(to))
				continue
			}
			if reaches(to, from) {
				rep.reportf(e.pos, "lock-order cycle: %s is acquired while %s is held here, and %s is (possibly transitively) acquired while %s is held elsewhere — two goroutines taking the locks in opposite orders deadlock", shortLockKey(to), shortLockKey(from), shortLockKey(from), shortLockKey(to))
			}
		}
	}
}

// checkBlockedHolders flags blocking operations executed while a lock is
// held.
func checkBlockedHolders(rep *reporter, info *types.Info, body *ast.BlockStmt) {
	// Channel operations that are a select clause's guard do not block on
	// their own; the select is judged as a whole (it blocks only without a
	// default).
	selectGuards := make(map[ast.Node]bool)
	ast.Inspect(body, func(x ast.Node) bool {
		sel, ok := x.(*ast.SelectStmt)
		if !ok {
			return true
		}
		for _, cs := range sel.Body.List {
			cc, ok := cs.(*ast.CommClause)
			if !ok || cc.Comm == nil {
				continue
			}
			markSelectGuard(cc.Comm, selectGuards)
		}
		return true
	})

	report := func(held []heldLock, pos token.Pos, op string) {
		names := make([]string, 0, len(held))
		for _, h := range held {
			names = append(names, h.expr)
		}
		sort.Strings(names)
		for _, name := range names {
			rep.reportf(pos, "%s while %s is locked: a blocked holder stalls every other user of the lock (unlock before blocking)", op, name)
		}
	}

	walkHeld(info, body, nil, func(held []heldLock, n ast.Node) bool {
		if len(held) == 0 {
			return true
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			if !selectGuards[n] {
				report(held, n.Pos(), "channel send")
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !selectGuards[n] {
				report(held, n.Pos(), "channel receive")
			}
		case *ast.SelectStmt:
			if !selectHasDefault(n) {
				report(held, n.Pos(), "select with no default")
			}
		case *ast.RangeStmt:
			if tv, ok := info.Types[n.X]; ok && isChanType(tv.Type) {
				report(held, n.Pos(), "range over channel")
			}
		case *ast.CallExpr:
			if recv, name := syncMethodOn(info, n); name == "Wait" && recv != nil {
				if tv, ok := info.Types[recv]; ok {
					switch {
					case isWaitGroup(tv.Type):
						report(held, n.Pos(), "sync.WaitGroup.Wait")
					case isCondType(tv.Type) && len(held) >= 2:
						// Cond.Wait releases its own mutex while parked; a
						// second held lock stays held across the park.
						report(held, n.Pos(), "sync.Cond.Wait with a second lock held")
					}
				}
			}
			if name := worldRunName(info, n); name != "" {
				report(held, n.Pos(), "comm.World."+name)
			}
			if op := commOpName(info, n); op != "" {
				report(held, n.Pos(), "comm."+op)
			}
		}
		return true
	})
}

// markSelectGuard records the channel-operation nodes of one select clause
// guard: the send or receive itself, through the assignment wrapper forms.
func markSelectGuard(comm ast.Stmt, guards map[ast.Node]bool) {
	guards[comm] = true
	switch s := comm.(type) {
	case *ast.SendStmt:
		// already marked
	case *ast.ExprStmt:
		if u, ok := unparen(s.X).(*ast.UnaryExpr); ok {
			guards[u] = true
		}
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			if u, ok := unparen(r).(*ast.UnaryExpr); ok {
				guards[u] = true
			}
		}
	}
}

func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, cs := range sel.Body.List {
		if cc, ok := cs.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}
