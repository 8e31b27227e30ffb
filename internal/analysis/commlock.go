package analysis

import (
	"go/ast"
	"go/types"
	"sort"
)

// commlock flags comm operations performed while a sync.Mutex or
// sync.RWMutex acquired in the same function is still held. In the World
// runtime every collective and every matched send/receive requires progress
// on other ranks; a rank that blocks inside comm while holding a lock that
// another rank needs (directly, or transitively through the code the
// collective runs) deadlocks the whole World — and unlike a crash, a
// deadlock gives no stack until someone attaches a debugger.
//
// The check is intra-procedural and statement-ordered: Lock()/RLock() adds
// the receiver expression to the held set, Unlock()/RUnlock() removes it,
// and "defer mu.Unlock()" keeps it held until function exit. Send is
// treated as blocking even though this in-process runtime buffers
// unboundedly, because the invariant must stay true under MPI rendezvous
// semantics, which the comm package exists to model.
var commLockAnalyzer = &Analyzer{
	Name:     "commlock",
	Doc:      "flag blocking comm operations while a locally acquired mutex is held",
	Severity: SeverityError,
	Version:  3,
	Run:      runCommLock,
}

const commPkgPath = "blocktri/internal/comm"

// blockingCommOps are the comm.Comm methods that require matching progress
// on another rank.
var blockingCommOps = map[string]bool{
	"Send": true, "SendOwned": true, "Recv": true, "SendRecv": true, "Exchange": true,
	"Barrier": true, "Bcast": true, "Allreduce": true, "Gather": true,
	"SendMatrix": true, "RecvMatrix": true, "ExchangeMatrices": true,
	"BcastMatrix": true,
}

func runCommLock(m *Module) []Finding {
	p := &pass{m: m, name: "commlock"}
	for _, pkg := range m.Pkgs {
		// The comm package itself implements the primitives; its internal
		// mailbox locking is the mechanism, not a client bug.
		if pkg.Path == commPkgPath {
			continue
		}
		for _, file := range pkg.Files {
			eachFuncBody(file, func(body *ast.BlockStmt) {
				checkLockedComm(p, pkg.Info, body)
			})
		}
	}
	return p.findings
}

// syncLockKind classifies a call as a lock acquire (+1), release (-1), or
// neither (0), returning the receiver expression's printed form as the key.
func syncLockKind(info *types.Info, call *ast.CallExpr) (key string, kind int) {
	f := calleeFunc(info, call)
	if f == nil || funcPkgPath(f) != "sync" {
		return "", 0
	}
	switch f.Name() {
	case "Lock", "RLock":
		kind = 1
	case "Unlock", "RUnlock":
		kind = -1
	default:
		return "", 0
	}
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", 0
	}
	return types.ExprString(sel.X), kind
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

// checkLockedComm walks one function body in source order tracking the set
// of held locks.
func checkLockedComm(p *pass, info *types.Info, body *ast.BlockStmt) {
	held := make(map[string]ast.Node) // lock key -> Lock call site
	inspectShallow(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			// defer mu.Unlock() releases only at function exit: the lock
			// stays held for every statement below, so do not remove it.
			// Other deferred calls are not part of the statement flow.
			return false
		case *ast.CallExpr:
			if key, kind := syncLockKind(info, n); kind != 0 {
				if kind > 0 {
					held[key] = n
				} else {
					delete(held, key)
				}
				return true
			}
			if op := commOpName(info, n); op != "" && len(held) > 0 {
				keys := make([]string, 0, len(held))
				for key := range held {
					keys = append(keys, key)
				}
				sort.Strings(keys)
				for _, key := range keys {
					p.reportf(n.Pos(),
						"comm.%s while %s is locked: a rank blocked in comm holding a lock deadlocks the World (unlock before communicating)",
						op, key)
				}
			}
		}
		return true
	})
}
