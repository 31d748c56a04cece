package lint

// snapshotmut: published kernel.Snapshot state is immutable.
//
// Snapshots are shared wait-free across goroutines and across versions
// (untouched polygons are reused COW), so a single mutating call on a set
// reachable from a snapshot corrupts every concurrent reader and every
// later snapshot that shares the set. The runtime verification net only
// catches this after the fact (differential divergence, stress-gate
// failure); this analyzer catches it at review time.
//
// A "reachable" value is anything typed kernel.Snapshot (any
// instantiation), or derived from one through fields, accessor methods
// (Faults, Polygons, Disabled, ...), indexing, or local assignment chains.
// Flagged sinks are mutating kernel.Set method calls on such values and
// element/field writes into them. Clone() launders: a cloned set is owned.
//
// The one legitimate writer is the engine's publish path, which constructs
// the snapshot before anyone can see it; it opts out function-wide with a
// //mfplint:owned directive in its doc comment.

import (
	"go/ast"
	"go/token"
)

// setMutators are the kernel.Set methods that mutate their receiver.
// Kept in sync with internal/kernel/set.go by TestSetMutatorsCurrent.
var setMutators = map[string]bool{
	"Add": true, "AddIndex": true, "Remove": true, "RemoveIndex": true,
	"Clear": true, "CopyFrom": true, "FillRange": true, "ClearRange": true,
	"UnionWith":     true,
	"IntersectWith": true, "SubtractWith": true, "orWithNoCount": true,
	"recount": true, "grow": true, "trim": true,
}

// SnapshotMut is the snapshot-immutability analyzer.
var SnapshotMut = &Analyzer{
	Name: "snapshotmut",
	Doc: "flags mutations of values reachable from a published kernel.Snapshot: " +
		"mutating Set calls (Add, Remove, FillRange, CopyFrom, orWith..., ...) and " +
		"element writes; snapshots are shared COW across readers and versions, so " +
		"they are immutable once published. Clone before mutating, or mark the " +
		"engine's publish path //mfplint:owned.",
	Run: runSnapshotMut,
}

func runSnapshotMut(p *Pass) error {
	source := func(e ast.Expr) bool {
		tv, ok := p.TypesInfo.Types[e]
		return ok && isNamed(tv.Type, KernelPath, "Snapshot")
	}
	for _, f := range p.Files {
		if p.isTestFile(f) {
			continue
		}
		eachFunc(f, func(fs funcScope) {
			if p.funcAllowed(fs.decl, "owned") {
				return
			}
			tt := newTaint(p.TypesInfo, fs.body, source, launderedCopies)
			ast.Inspect(fs.body, func(n ast.Node) bool {
				switch v := n.(type) {
				case *ast.CallExpr:
					sel, ok := v.Fun.(*ast.SelectorExpr)
					if !ok || !setMutators[sel.Sel.Name] {
						return true
					}
					tv, ok := p.TypesInfo.Types[sel.X]
					if !ok || !isNamed(tv.Type, KernelPath, "Set") {
						return true
					}
					if tt.expr(sel.X) && !p.allowedAt(v.Pos(), "owned") {
						p.Report(v.Pos(), "%s mutates a set reachable from a published Snapshot; clone it first (snapshots are shared copy-on-write)", sel.Sel.Name)
					}
				case *ast.AssignStmt:
					for _, lhs := range v.Lhs {
						p.checkSnapshotWrite(tt, lhs, v.Pos())
					}
				case *ast.IncDecStmt:
					p.checkSnapshotWrite(tt, v.X, v.Pos())
				}
				return true
			})
		})
	}
	return nil
}

// checkSnapshotWrite flags an assignment target that writes through a
// snapshot-reachable container: snap.field = x, snapSlice[i] = x,
// snapMap[k] = x, *snapPtr = x.
func (p *Pass) checkSnapshotWrite(tt *taint, lhs ast.Expr, pos token.Pos) {
	var container ast.Expr
	switch v := lhs.(type) {
	case *ast.SelectorExpr:
		container = v.X
	case *ast.IndexExpr:
		container = v.X
	case *ast.StarExpr:
		container = v.X
	default:
		return
	}
	if tt.expr(container) && !p.allowedAt(pos, "owned") {
		p.Report(pos, "write into state reachable from a published Snapshot; snapshots are immutable once published")
	}
}
