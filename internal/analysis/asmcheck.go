package analysis

import (
	"go/ast"
	"go/types"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// asmcheck verifies the hand-written assembly kernels against their Go
// declarations. The AVX-512 GEMM micro-kernel is the hottest code in the
// repository and the one place the type checker cannot follow: a frame-size
// typo, an FP offset drifting after a signature change, a missing
// VZEROUPPER (AVX/SSE transition stalls in every later SSE instruction),
// or a clobbered callee-saved register all assemble and link fine and then
// corrupt results or performance at runtime.
//
// For every TEXT block in a package's .s files, asmcheck checks:
//
//   - a body-less Go declaration of the same name exists, and carries
//     //go:noescape when it takes pointers (without it, every call heap-
//     allocates the pointed-to buffers' escape analysis conservatively);
//   - the declared argument size matches the ABI0 frame layout computed
//     from the Go signature, and every name+offset(FP) reference resolves
//     to the right parameter or result at the right offset;
//   - NOSPLIT is set — the kernels must not carry stack-split preludes;
//   - functions touching Y/Z vector registers execute VZEROUPPER before
//     every RET;
//   - no instruction writes a register the Go ABI reserves (SP, BP frame
//     pointer, R14 goroutine pointer, R15 dynamic-linking scratch).
//
// The checks are a pure text analysis of the Plan 9 source — no toolchain
// invocation (NeedsBuild is false). It runs only on GOARCH=amd64 hosts:
// elsewhere the build filters out both the .s files and their declaration
// stubs.
var asmCheckAnalyzer = &Analyzer{
	Name:     "asmcheck",
	Doc:      "verify .s kernels against Go declarations: ABI0 frame/offsets, NOSPLIT, VZEROUPPER, callee-saved registers",
	Severity: SeverityError,
	Run:      runAsmCheck,
}

var (
	asmTextRe  = regexp.MustCompile(`^TEXT\s+·(\w+)\(SB\)\s*(?:,\s*([A-Z0-9|]+)\s*)?,\s*\$(-?\d+)(?:-(\d+))?\s*$`)
	asmFPRefRe = regexp.MustCompile(`(\w+)\+(\d+)\(FP\)`)
	asmVecRe   = regexp.MustCompile(`\b[YZ]\d+\b`)
)

// asmInstr is one instruction line of a TEXT block.
type asmInstr struct {
	Line     int
	Op       string
	Operands []string
}

// asmFunc is one parsed TEXT block.
type asmFunc struct {
	Name      string
	Line      int // line of the TEXT directive
	Flags     []string
	FrameSize int
	ArgSize   int // -1 when the TEXT line omits the argument size
	Instrs    []asmInstr
	UsesVec   bool // any Y/Z register operand anywhere in the body
}

// parseAsmFile splits a Plan 9 source into TEXT blocks. Unparseable TEXT
// lines are reported through bad so malformed directives surface as
// findings instead of silently skipping a kernel.
func parseAsmFile(src []byte, bad func(line int, text string)) []*asmFunc {
	var funcs []*asmFunc
	var cur *asmFunc
	for i, raw := range strings.Split(string(src), "\n") {
		line := i + 1
		text := raw
		if idx := strings.Index(text, "//"); idx >= 0 {
			text = text[:idx]
		}
		text = strings.TrimSpace(text)
		if text == "" || strings.HasPrefix(text, "#") || strings.HasSuffix(text, ":") {
			continue // blank, preprocessor, label
		}
		if strings.HasPrefix(text, "TEXT") {
			m := asmTextRe.FindStringSubmatch(text)
			if m == nil {
				bad(line, raw)
				cur = nil
				continue
			}
			frame, _ := strconv.Atoi(m[3])
			args := -1
			if m[4] != "" {
				args, _ = strconv.Atoi(m[4])
			}
			cur = &asmFunc{Name: m[1], Line: line, FrameSize: frame, ArgSize: args}
			if m[2] != "" {
				cur.Flags = strings.Split(m[2], "|")
			}
			funcs = append(funcs, cur)
			continue
		}
		if cur == nil {
			continue // DATA/GLOBL or stray line outside any TEXT
		}
		fields := strings.Fields(text)
		in := asmInstr{Line: line, Op: fields[0]}
		if rest := strings.TrimSpace(text[len(fields[0]):]); rest != "" {
			for _, op := range strings.Split(rest, ",") {
				in.Operands = append(in.Operands, strings.TrimSpace(op))
			}
		}
		if asmVecRe.MatchString(text) {
			cur.UsesVec = true
		}
		cur.Instrs = append(cur.Instrs, in)
	}
	return funcs
}

func (f *asmFunc) hasFlag(name string) bool {
	for _, fl := range f.Flags {
		if fl == name {
			return true
		}
	}
	return false
}

// abiSlot is one parameter or result in the ABI0 stack frame.
type abiSlot struct {
	Name   string
	Offset int64
	Size   int64
}

// abi0Layout computes the ABI0 (stack-only) argument frame of a signature
// on the given target: parameters packed in order at their natural
// alignment, results after re-aligning to the pointer size, total rounded
// up to the pointer size. This is the layout the assembler's name+off(FP)
// symbols address.
func abi0Layout(sig *types.Signature, sizes types.Sizes) (slots []abiSlot, total int64) {
	const ptrSize = 8
	align := func(o, a int64) int64 { return (o + a - 1) &^ (a - 1) }
	off := int64(0)
	walk := func(tup *types.Tuple) {
		for i := 0; i < tup.Len(); i++ {
			v := tup.At(i)
			off = align(off, sizes.Alignof(v.Type()))
			slots = append(slots, abiSlot{Name: v.Name(), Offset: off, Size: sizes.Sizeof(v.Type())})
			off += sizes.Sizeof(v.Type())
		}
	}
	walk(sig.Params())
	off = align(off, ptrSize)
	walk(sig.Results())
	return slots, align(off, ptrSize)
}

// calleeSavedAMD64 lists the registers the Go amd64 ABI reserves; writing
// any of them in a leaf kernel corrupts the caller's frame walk (BP), the
// scheduler (R14 holds g), dynamic linking (R15) or the stack itself (SP).
var calleeSavedAMD64 = map[string]string{
	"SP":  "the stack pointer",
	"BP":  "the frame pointer",
	"R14": "the goroutine pointer (g)",
	"R15": "the dynamic-linking scratch register",
}

func runAsmCheck(m *Module) []Finding {
	// The register rules and frame layout below are amd64's; on other hosts
	// the build context filters out both the _amd64.s files and their stub
	// declarations, so there is nothing coherent to check.
	if runtime.GOARCH != "amd64" {
		return nil
	}
	p := &pass{m: m, name: "asmcheck"}
	sizes := types.SizesFor("gc", "amd64")
	for _, pkg := range m.Pkgs {
		sfiles := asmFilesFor(pkg)
		if len(sfiles) == 0 {
			continue
		}
		stubs, stubSigs := asmStubs(pkg)
		implemented := make(map[string]bool)
		for _, sf := range sfiles {
			report := func(line int, format string, args ...any) {
				p.reportAt(FactDiag{File: sf.Name, Line: line, Col: 1}, format, args...)
			}
			funcs := parseAsmFile(sf.Src, func(line int, text string) {
				report(line, "unparseable TEXT directive %q: expected TEXT ·name(SB), FLAGS, $frame-args", strings.TrimSpace(text))
			})
			for _, f := range funcs {
				implemented[f.Name] = true
				fd := stubs[f.Name]
				if fd == nil {
					report(f.Line, "TEXT ·%s has no body-less Go declaration in package %s", f.Name, pkg.Pkg.Name())
					continue
				}
				sig := stubSigs[f.Name]
				if sig != nil && takesPointers(sig) && !hasAnnotation(fd.Doc, "//go:noescape") {
					p.reportf(fd.Pos(), "assembly stub %s takes pointers but is not marked //go:noescape: escape analysis will heap-allocate every buffer passed to it", f.Name)
				}
				if !f.hasFlag("NOSPLIT") {
					report(f.Line, "TEXT ·%s is missing NOSPLIT: a stack-split prelude in the kernel defeats the leaf-call cost model", f.Name)
				}
				if sig == nil {
					continue
				}
				slots, total := abi0Layout(sig, sizes)
				if f.ArgSize < 0 && total > 0 {
					report(f.Line, "TEXT ·%s omits the argument size: declare $%d-%d to match %s", f.Name, f.FrameSize, total, types.ObjectString(pkg.Info.Defs[fd.Name], types.RelativeTo(pkg.Pkg)))
				} else if f.ArgSize >= 0 && int64(f.ArgSize) != total {
					report(f.Line, "TEXT ·%s declares argument size %d but the ABI0 layout of its Go signature needs %d bytes", f.Name, f.ArgSize, total)
				}
				byName := make(map[string]abiSlot, len(slots))
				for _, s := range slots {
					if s.Name != "" && s.Name != "_" {
						byName[s.Name] = s
					}
				}
				checkInstrs(f, byName, report)
			}
		}
		// The reverse direction: a Go stub with no TEXT block would die at
		// link time with a bare "missing function body"; anchoring it here
		// names the .s files that were searched.
		var missing []string
		for name := range stubs {
			if !implemented[name] {
				missing = append(missing, name)
			}
		}
		sort.Strings(missing)
		for _, name := range missing {
			p.reportf(stubs[name].Pos(), "assembly stub %s has no TEXT block in the package's .s files", name)
		}
	}
	return p.findings
}

// checkInstrs runs the per-instruction checks of one TEXT block: FP
// symbol/offset resolution, callee-saved destinations, and VZEROUPPER
// discipline before each RET.
func checkInstrs(f *asmFunc, byName map[string]abiSlot, report func(line int, format string, args ...any)) {
	lastOp := ""
	for _, in := range f.Instrs {
		for _, op := range in.Operands {
			for _, ref := range asmFPRefRe.FindAllStringSubmatch(op, -1) {
				name := ref[1]
				off, _ := strconv.Atoi(ref[2])
				slot, ok := byName[name]
				if !ok {
					report(in.Line, "%s+%s(FP) does not name a parameter or result of ·%s", name, ref[2], f.Name)
					continue
				}
				if slot.Offset != int64(off) {
					report(in.Line, "%s+%d(FP) disagrees with the ABI0 layout: %s lives at offset %d", name, off, name, slot.Offset)
				}
			}
		}
		if len(in.Operands) > 0 && in.Op != "TESTQ" && in.Op != "CMPQ" && in.Op != "CMPL" {
			dst := in.Operands[len(in.Operands)-1]
			if role, ok := calleeSavedAMD64[dst]; ok {
				report(in.Line, "%s writes %s, %s: the Go ABI requires it preserved across the call", in.Op, dst, role)
			}
		}
		if in.Op == "RET" && f.UsesVec && lastOp != "VZEROUPPER" {
			report(in.Line, "RET without VZEROUPPER in ·%s, which uses Z/Y registers: mixing dirty upper ZMM state with later SSE code stalls every subsequent scalar op", f.Name)
		}
		lastOp = in.Op
	}
}

// asmStubs indexes a package's body-less function declarations — the Go
// side of its assembly implementations — and their signatures.
func asmStubs(pkg *Package) (map[string]*ast.FuncDecl, map[string]*types.Signature) {
	stubs := make(map[string]*ast.FuncDecl)
	sigs := make(map[string]*types.Signature)
	for _, file := range pkg.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body != nil || fd.Recv != nil {
				continue
			}
			stubs[fd.Name.Name] = fd
			if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
				if sig, ok := fn.Type().(*types.Signature); ok {
					sigs[fd.Name.Name] = sig
				}
			}
		}
	}
	return stubs, sigs
}

// asmFile is one assembly source of a package.
type asmFile struct {
	Name string // absolute path
	Src  []byte
}

// asmFilesFor reads a package's assembly sources (those matching the host
// build constraints) from its directory.
func asmFilesFor(pkg *Package) []asmFile {
	names, err := asmFilesIn(pkg.Dir)
	if err != nil {
		return nil
	}
	var out []asmFile
	for _, name := range names {
		src, err := os.ReadFile(name)
		if err != nil {
			continue
		}
		out = append(out, asmFile{Name: name, Src: src})
	}
	return out
}

// takesPointers reports whether any parameter carries a pointer the callee
// could retain: pointers, slices, maps, channels, function values.
func takesPointers(sig *types.Signature) bool {
	for i := 0; i < sig.Params().Len(); i++ {
		switch sig.Params().At(i).Type().Underlying().(type) {
		case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
			return true
		}
	}
	return false
}
