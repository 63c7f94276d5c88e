package garnet_test

import (
	"errors"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/garnet-middleware/garnet/internal/core"
)

// The surface census: every exported function and method in internal/
// and every settable core.Config leaf has a non-test caller or a stated
// reason. Callers are found by type-checking the non-test files of the
// root package, cmd/, examples/, internal/ and bench/ (its own module, so
// the root ./... never builds it) from source.

// fieldReasons names, for each core.Config leaf (dotted path) that no
// non-test file sets, why it stays anyway. A reason may name only a
// facade type, the verify skill or an open ROADMAP item that needs it.
var fieldReasons = map[string]string{
	"Filter":   "bench/system.go's chain passes Config.Filter to filtering.New; it has no settable field (ROADMAP item 2 deletes the chain)",
	"Location": "bench/system.go's chain passes Config.Location to location.New; its fields are test-set (ROADMAP item 2 deletes the chain)",
}

// surfaceReasons names, for each exported function or method in
// internal/ (package-relative, as "store.Store.EvictTo") that nothing
// outside its package calls, why it stays anyway. The rule is the one
// fieldReasons follows.
var surfaceReasons = map[string]string{
	"coordinator.Coordinator.Deregister": "ROADMAP item 4: Revoke drops the revoked consumer's state model",
	"resource.Manager.WithdrawAll":       "ROADMAP item 4: Revoke withdraws the revoked consumer's standing demands",
	"orphanage.Orphanage.EvictBefore":    "ROADMAP item 6: the idle-age retirement policy sweeps unclaimed streams",
	"store.Store.EvictTo":                "ROADMAP item 6: Retire and the idle-age policy cut a stream's retained history",
	"dispatch.Dispatcher.Wakeups":        "the verify skill reads Core().Dispatcher().Wakeups() beside Stats().Dispatch.Delivered",
	"transmit.Transmitter.Name":          "the only reader of the facade's TransmitterConfig.Name",
}

const modulePath = "github.com/garnet-middleware/garnet"

// checkedPackage is one type-checked package of the census universe.
type checkedPackage struct {
	path  string
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// surface is the census universe: every non-test package of the module
// and of bench/, type-checked with std imported from source.
type surface struct {
	fset  *token.FileSet
	dirs  map[string]string // import path → directory
	pkgs  map[string]*checkedPackage
	order []*checkedPackage
	std   types.Importer
}

var (
	surfaceOnce sync.Once
	surfaceU    *surface
	surfaceErr  error
)

func loadSurface(t *testing.T) *surface {
	t.Helper()
	if raceEnabled {
		t.Skip("static analysis: -race only slows the type-check; CI runs the census without it")
	}
	surfaceOnce.Do(func() { surfaceU, surfaceErr = newSurface() })
	if surfaceErr != nil {
		t.Fatal(surfaceErr)
	}
	return surfaceU
}

func newSurface() (*surface, error) {
	fset := token.NewFileSet()
	s := &surface{
		fset: fset,
		dirs: make(map[string]string),
		pkgs: make(map[string]*checkedPackage),
		std:  importer.ForCompiler(fset, "source", nil),
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		ip := modulePath
		if path != "." {
			ip += "/" + filepath.ToSlash(path)
		}
		s.dirs[ip] = path
		return nil
	})
	if err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(s.dirs))
	for ip := range s.dirs {
		paths = append(paths, ip)
	}
	sort.Strings(paths)
	for _, ip := range paths {
		if _, err := s.Import(ip); err != nil && !errors.As(err, new(*build.NoGoError)) {
			return nil, err
		}
	}
	return s, nil
}

// Import implements types.Importer: module packages are type-checked
// here (recording their uses), everything else comes from std source.
func (s *surface) Import(path string) (*types.Package, error) {
	if cp, ok := s.pkgs[path]; ok {
		return cp.pkg, nil
	}
	dir, ok := s.dirs[path]
	if !ok {
		return s.std.Import(path)
	}
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	cp := &checkedPackage{path: path, info: &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(s.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		cp.files = append(cp.files, f)
	}
	conf := types.Config{Importer: s}
	if cp.pkg, err = conf.Check(path, s.fset, cp.files, cp.info); err != nil {
		return nil, err
	}
	s.pkgs[path] = cp
	s.order = append(s.order, cp)
	return cp.pkg, nil
}

// where renders a node's position relative to the repository root.
func (s *surface) where(n ast.Node) string {
	p := s.fset.Position(n.Pos())
	return filepath.ToSlash(p.Filename) + ":" + strconv.Itoa(p.Line)
}

// isConfig reports whether e's type is core.Config or a pointer to it.
func isConfig(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok {
		return false
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Name() == "Config" && n.Obj().Pkg().Path() == modulePath+"/internal/core"
}

// setters maps each struct field to the non-test places that set it: a
// keyed composite-literal element outside the field's own package (which
// only defaults its copies), or an assignment, inc/dec or address-of
// through a core.Config value.
func (s *surface) setters() map[*types.Var][]string {
	out := make(map[*types.Var][]string)
	for _, cp := range s.order {
		info := cp.info
		through := func(e ast.Expr) {
			sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
			if !ok {
				return
			}
			field, ok := info.Uses[sel.Sel].(*types.Var)
			if !ok || !field.IsField() {
				return
			}
			for x := sel.X; ; {
				if isConfig(info, x) {
					out[field] = append(out[field], s.where(sel))
					return
				}
				next, ok := ast.Unparen(x).(*ast.SelectorExpr)
				if !ok {
					return
				}
				x = next.X
			}
		}
		for _, f := range cp.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						through(lhs)
					}
				case *ast.IncDecStmt:
					through(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						through(n.X)
					}
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						if field, ok := info.Uses[id].(*types.Var); ok && field.IsField() && field.Pkg() != cp.pkg {
							out[field] = append(out[field], s.where(n))
						}
					}
				}
				return true
			})
		}
	}
	return out
}

// configLeaf is one core.Config leaf: its dotted path, and whether its
// value is settable at all (a nested struct with no exported field is
// not, but still needs a caller or a reason to stay a field).
type configLeaf struct {
	path     string
	settable bool
	field    reflect.StructField
	owner    reflect.Type
}

// configLeaves walks t by reflection, descending into the module's
// nested option structs.
func configLeaves(prefix string, t reflect.Type) []configLeaf {
	var out []configLeaf
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		ft := f.Type
		if ft.Kind() == reflect.Struct && strings.HasPrefix(ft.PkgPath(), modulePath) {
			nested := configLeaves(prefix+f.Name+".", ft)
			if len(nested) == 0 {
				out = append(out, configLeaf{path: prefix + f.Name, field: f, owner: t})
			}
			out = append(out, nested...)
			continue
		}
		out = append(out, configLeaf{path: prefix + f.Name, settable: true, field: f, owner: t})
	}
	return out
}

// maxConfigLeaves is the budget of settable core.Config leaves. A new
// knob raises it in the same change, with a CHANGES.md line saying why.
const maxConfigLeaves = 30

// TestCensusConfigFields: every exported core.Config leaf has a non-test
// setter or an entry in fieldReasons; a stale or false entry fails, and
// so do more than maxConfigLeaves settable leaves.
func TestCensusConfigFields(t *testing.T) {
	s := loadSurface(t)
	set := s.setters()
	leaves := configLeaves("", reflect.TypeOf(core.Config{}))
	isLeaf := make(map[string]bool, len(leaves))
	settable := 0
	for _, leaf := range leaves {
		isLeaf[leaf.path] = true
		if leaf.settable {
			settable++
		}
		owner, ok := s.pkgs[leaf.owner.PkgPath()]
		if !ok {
			t.Fatalf("%s: package %s not in the census", leaf.path, leaf.owner.PkgPath())
		}
		obj, _, _ := types.LookupFieldOrMethod(owner.pkg.Scope().Lookup(leaf.owner.Name()).Type(), false, owner.pkg, leaf.field.Name)
		field, ok := obj.(*types.Var)
		if !ok {
			t.Fatalf("%s: no field %s on %s", leaf.path, leaf.field.Name, leaf.owner)
		}
		where := set[field]
		reason, excused := fieldReasons[leaf.path]
		switch {
		case len(where) > 0 && excused:
			t.Errorf("Config.%s is set at %v: drop its fieldReasons entry", leaf.path, where)
		case len(where) > 0:
			t.Logf("Config.%s: set at %s", leaf.path, strings.Join(where, ", "))
		case excused:
			t.Logf("Config.%s: %s", leaf.path, reason)
		default:
			t.Errorf("Config.%s has no setter outside tests and no reason in fieldReasons: unexport or delete it, or say why it stays", leaf.path)
		}
	}
	for _, path := range sortedKeys(fieldReasons) {
		if !isLeaf[path] {
			t.Errorf("fieldReasons names Config.%s, which is not a core.Config leaf", path)
		}
	}
	t.Logf("core.Config: %d settable leaf values", settable)
	if settable > maxConfigLeaves {
		t.Errorf("core.Config has %d settable leaf values, over the budget of %d", settable, maxConfigLeaves)
	}
}

// TestCensusExportedNames: every exported function and method declared
// in a non-test internal/ file is referenced from a non-test file outside
// its package (bench/ included), is a method of a type the facade
// re-exports (types.go), satisfies an interface, or has an entry in
// surfaceReasons; a stale or false entry fails.
func TestCensusExportedNames(t *testing.T) {
	s := loadSurface(t)

	used := make(map[*types.Func]bool)
	var ifaces []*types.Interface
	addIfaces := func(p *types.Package) {
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
	}
	seenImport := make(map[*types.Package]bool)
	for _, cp := range s.order {
		for _, obj := range cp.info.Uses {
			if fn, ok := obj.(*types.Func); ok && fn.Pkg() != nil && fn.Pkg() != cp.pkg {
				used[fn.Origin()] = true
			}
		}
		for _, tv := range cp.info.Types {
			if it, ok := tv.Type.(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
		addIfaces(cp.pkg)
		for _, imp := range cp.pkg.Imports() {
			if !seenImport[imp] {
				seenImport[imp] = true
				addIfaces(imp)
			}
		}
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	satisfies := func(fn *types.Func, recv *types.Named) bool {
		for _, it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				if it.Method(i).Name() == fn.Name() && (types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it)) {
					return true
				}
			}
		}
		return false
	}
	public := make(map[*types.TypeName]bool)
	root := s.pkgs[modulePath]
	for _, name := range root.pkg.Scope().Names() {
		if tn, ok := root.pkg.Scope().Lookup(name).(*types.TypeName); ok && tn.IsAlias() {
			if n, ok := types.Unalias(tn.Type()).(*types.Named); ok {
				public[n.Obj()] = true
			}
		}
	}

	declared := make(map[string]bool)
	total, byReason := 0, 0
	for _, cp := range s.order {
		rel, ok := strings.CutPrefix(cp.path, modulePath+"/internal/")
		if !ok {
			continue
		}
		for _, f := range cp.files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				total++
				fn := cp.info.Defs[fd.Name].(*types.Func)
				name := rel + "." + fn.Name()
				live := used[fn]
				if recv := fn.Signature().Recv(); recv != nil {
					rt := recv.Type()
					if p, ok := rt.(*types.Pointer); ok {
						rt = p.Elem()
					}
					named := rt.(*types.Named)
					name = rel + "." + named.Obj().Name() + "." + fn.Name()
					live = live || public[named.Obj()] || satisfies(fn, named)
				}
				declared[name] = true
				reason, excused := surfaceReasons[name]
				switch {
				case live && excused:
					t.Errorf("%s has a caller: drop its surfaceReasons entry", name)
				case excused:
					byReason++
					t.Logf("%s: %s", name, reason)
				case !live:
					t.Errorf("%s (%s) has no caller outside its package and no reason in surfaceReasons: delete or unexport it, or say why it stays", name, s.where(fd))
				}
			}
		}
	}
	for _, name := range sortedKeys(surfaceReasons) {
		if !declared[name] {
			t.Errorf("surfaceReasons names %s, which is not an exported function or method in internal/", name)
		}
	}
	t.Logf("internal/: %d exported functions and methods, %d kept by a reason", total, byReason)
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
