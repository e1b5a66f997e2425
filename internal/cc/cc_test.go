package cc

import (
	"strings"
	"testing"
)

func parseAndCheck(t *testing.T, src string) *Unit {
	t.Helper()
	u, err := Parse("test.mvc", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := Check(u); err != nil {
		t.Fatalf("check: %v", err)
	}
	return u
}

func expectError(t *testing.T, src, want string) {
	t.Helper()
	u, err := Parse("test.mvc", src)
	if err == nil {
		err = Check(u)
	}
	if err == nil {
		t.Fatalf("no error, want %q", want)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not contain %q", err, want)
	}
}

func TestLexerBasics(t *testing.T) {
	toks, err := LexAll("t", `int x = 0x1F; // comment
	/* block
	   comment */ char c = '\n'; "str\t"`)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokKind
	for _, tk := range toks {
		kinds = append(kinds, tk.Kind)
	}
	if toks[3].Kind != TokNumber || toks[3].Num != 0x1F {
		t.Errorf("hex literal = %+v", toks[3])
	}
	var char, str *Token
	for i := range toks {
		if toks[i].Kind == TokChar {
			char = &toks[i]
		}
		if toks[i].Kind == TokString {
			str = &toks[i]
		}
	}
	if char == nil || char.Num != '\n' {
		t.Errorf("char literal = %+v", char)
	}
	if str == nil || str.Str != "str\t" {
		t.Errorf("string literal = %+v", str)
	}
	_ = kinds
}

func TestLexerPositions(t *testing.T) {
	toks, err := LexAll("f.c", "int\n  x;")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Pos.Line != 1 || toks[1].Pos.Line != 2 || toks[1].Pos.Col != 3 {
		t.Errorf("positions: %v %v", toks[0].Pos, toks[1].Pos)
	}
}

func TestLexerErrors(t *testing.T) {
	for _, src := range []string{"@", "'a", `"unterminated`, "/* open", `'\q'`} {
		if _, err := LexAll("t", src); err == nil {
			t.Errorf("LexAll(%q) succeeded", src)
		}
	}
}

func TestParseSimpleProgram(t *testing.T) {
	u := parseAndCheck(t, `
		int counter = 5;
		int add(int a, int b) { return a + b; }
		int main(void) {
			int x = add(counter, 2);
			return x;
		}
	`)
	if len(u.Decls) != 3 {
		t.Fatalf("decls = %d", len(u.Decls))
	}
	g := u.Decls[0].(*GlobalDecl)
	if g.Sym.Init == nil || *g.Sym.Init != 5 {
		t.Error("global initializer not recorded")
	}
	f := u.Decls[1].(*FuncDecl)
	if f.Name != "add" || len(f.Params) != 2 || f.Ret != TypeInt {
		t.Errorf("add decl = %+v", f)
	}
}

func TestMultiverseAttribute(t *testing.T) {
	u := parseAndCheck(t, `
		multiverse int config_smp;
		multiverse(0, 1, 4) int nr_cpus;
		multiverse void spin_lock(void) {
			if (config_smp) { nr_cpus = nr_cpus; }
		}
	`)
	smp := u.Globals["config_smp"]
	if !smp.Multiverse || smp.Domain != nil {
		t.Errorf("config_smp = %+v", smp)
	}
	if got := EffectiveDomain(smp, u.Enums); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("default domain = %v", got)
	}
	cpus := u.Globals["nr_cpus"]
	if got := EffectiveDomain(cpus, u.Enums); len(got) != 3 || got[2] != 4 {
		t.Errorf("explicit domain = %v", got)
	}
	if !u.Globals["spin_lock"].Func.Multiverse {
		t.Error("function attribute lost")
	}
}

func TestEnumDomain(t *testing.T) {
	u := parseAndCheck(t, `
		enum Mode { MODE_ASCII, MODE_UTF8 = 5, MODE_OTHER };
		multiverse enum Mode mode;
		int f(void) { return mode == MODE_UTF8; }
	`)
	m := u.Globals["mode"]
	dom := EffectiveDomain(m, u.Enums)
	if len(dom) != 3 || dom[0] != 0 || dom[1] != 5 || dom[2] != 6 {
		t.Errorf("enum domain = %v", dom)
	}
}

func TestEnumConstantsBecomeLiterals(t *testing.T) {
	u := parseAndCheck(t, `
		enum E { A = 3, B };
		int f(void) { return B; }
	`)
	f := u.Globals["f"].Func
	ret := f.Body.Stmts[0].(*Return)
	lit, ok := ret.X.(*IntLit)
	if !ok || lit.Value != 4 {
		t.Errorf("return expr = %#v", ret.X)
	}
}

func TestFunctionPointerSwitch(t *testing.T) {
	u := parseAndCheck(t, `
		void native_sti(void);
		multiverse void (*pv_sti)(void);
		void irq_enable(void) { pv_sti(); }
		void setup(void) { pv_sti = native_sti; }
	`)
	fp := u.Globals["pv_sti"]
	if !fp.Multiverse || fp.Type.Kind != KindPtr || fp.Type.Elem.Kind != KindFunc {
		t.Errorf("pv_sti = %v", fp.Type)
	}
}

func TestPointerArithmeticTypes(t *testing.T) {
	u := parseAndCheck(t, `
		char buf[100];
		long f(char* p, long n) {
			char* q = p + n;
			long d = q - p;
			int c = q[0];
			q[1] = 'x';
			return d + c + buf[2];
		}
	`)
	_ = u
}

func TestStatementsParse(t *testing.T) {
	parseAndCheck(t, `
		int f(int n) {
			int sum = 0;
			for (int i = 0; i < n; i++) { sum += i; }
			while (sum > 100) { sum -= 10; }
			do { sum++; } while (sum < 0);
			if (sum == 7) { return 1; } else if (sum) return 2;
			for (;;) { break; }
			int i = 0;
			while (1) {
				i++;
				if (i > 3) break;
				continue;
			}
			return sum ? sum : -1;
		}
	`)
}

func TestBuiltins(t *testing.T) {
	parseAndCheck(t, `
		ulong lockvar;
		void f(void) {
			long old = __xchg(&lockvar, 1);
			__pause();
			__cli();
			__sti();
			__hcall(2);
			__outb(1, 'x');
			int v = __inb(7);
			ulong t = __rdtsc();
			if (old + v + (long)t) {}
		}
	`)
	expectError(t, "void f(void) { __xchg(1, 2); }", "__xchg requires a pointer")
	expectError(t, "void f(void) { __pause(1); }", "takes 0 arguments")
	expectError(t, "void f(void) { int x = __pause; }", "must be called")
}

func TestTypeErrors(t *testing.T) {
	expectError(t, "int f(void) { return x; }", "undefined")
	expectError(t, "int f(void) { int x; int x; }", "redeclared")
	expectError(t, "void f(void) { break; }", "outside a loop")
	expectError(t, "void f(void) { continue; }", "outside a loop")
	expectError(t, "int f(void) { return; }", "missing return value")
	expectError(t, "void f(void) { return 1; }", "return with a value")
	expectError(t, "void f(void) { 1 = 2; }", "not assignable")
	expectError(t, "void f(int* p) { p = 5; }", "cannot assign")
	expectError(t, "void f(int* p) { int x = *p + p; }", "cannot assign") // int = ptr
	expectError(t, "int g; int g;", "redefined")
	expectError(t, "int g(void); int g; ", "conflicting declarations")
	expectError(t, "int f(void) { return f(1); }", "0")
	expectError(t, "void f(void* p) { *p; }", "dereference")
	expectError(t, "multiverse int* p;", "multiverse attribute requires")
	expectError(t, "multiverse(9999999999) int x;", "out of 32-bit range")
	expectError(t, "multiverse(1, 1) int x;", "duplicate domain value")
	expectError(t, "noscratch int f(void) { return 1; }", "must return void")
	expectError(t, "enum E { A }; enum E { B };", "redefined")
	expectError(t, "enum E { A, A };", "redefined")
	expectError(t, "int f(void) { return 1; } int f(void) { return 2; }", "redefined")
	expectError(t, "multiverse int x; int x;", "inconsistent multiverse attribute")
	expectError(t, "extern int x = 5;", "cannot have an initializer")
	expectError(t, "enum Nope v;", "undefined enum")
	expectError(t, "int a[0];", "array length")
}

// TestConstantInitializers: a global initializer folds through the
// shared folder, each operation in its operand types, and is stored
// narrowed to the global's type; what the folder does not evaluate is
// no constant.
func TestConstantInitializers(t *testing.T) {
	for _, c := range []struct {
		decl string
		want int64
	}{
		{"bool g = 2;", 1},
		{"long g = (bool)2 + 1;", 2},
		{"uchar g = 300;", 44},
		{"char g = 255;", -1},
		{"long g = 2147483647 + 1;", -2147483648},
		{"long g = (uint)1 - 2;", 0xffffffff},
		{"long g = (1 < 2) + (3 >= 4);", 1},
		{"long g = !5 - ~0;", 1},
		{"ulong g = ((ulong)0 - 1) >> 1;", 0x7fffffffffffffff},
		{"long g = -7 % 3;", -1},
	} {
		u := parseAndCheck(t, c.decl)
		if got := u.Globals["g"].Init; got == nil || *got != c.want {
			t.Errorf("%s: Init = %v, want %d", c.decl, got, c.want)
		}
	}
	expectError(t, "long x; long g = x + 1;", "integer constant expression")
	expectError(t, "long g = 1 && 1;", "integer constant expression")
	expectError(t, "long g = 1 / 0;", "integer constant expression")
}

func TestExternMergesWithDefinition(t *testing.T) {
	u := parseAndCheck(t, `
		extern multiverse int flag;
		multiverse int flag;
		int f(void) { return flag; }
	`)
	if u.Globals["flag"].Extern {
		t.Error("definition did not override extern")
	}
}

func TestPrototypeThenDefinition(t *testing.T) {
	u := parseAndCheck(t, `
		int twice(int x);
		int user(void) { return twice(4); }
		int twice(int x) { return x * 2; }
	`)
	if u.Globals["twice"].Func.Body == nil {
		t.Error("definition did not replace prototype")
	}
}

func TestOperatorPrecedence(t *testing.T) {
	u := parseAndCheck(t, "int f(void) { return 2 + 3 * 4; }")
	ret := u.Globals["f"].Func.Body.Stmts[0].(*Return)
	b := ret.X.(*Binary)
	if b.Op != "+" {
		t.Fatalf("top op = %q", b.Op)
	}
	if inner, ok := b.Y.(*Binary); !ok || inner.Op != "*" {
		t.Errorf("rhs = %#v", b.Y)
	}
}

func TestUnsignedSemantics(t *testing.T) {
	u := parseAndCheck(t, `
		uint f(uint a, int b) { return a / b; }
		long g(long a, long b) { return a / b; }
	`)
	fd := u.Globals["f"].Func
	ret := fd.Body.Stmts[0].(*Return)
	if ret.X.Type().IsSigned() {
		t.Error("uint/int division should be unsigned")
	}
	gd := u.Globals["g"].Func
	ret2 := gd.Body.Stmts[0].(*Return)
	if !ret2.X.Type().IsSigned() {
		t.Error("long/long division should be signed")
	}
}

func TestShadowingInNestedScopes(t *testing.T) {
	u := parseAndCheck(t, `
		int f(int x) {
			int y = x;
			{ int x = 2; y += x; }
			return y + x;
		}
	`)
	_ = u
}

func TestCasts(t *testing.T) {
	parseAndCheck(t, `
		long f(int* p) {
			long a = (long)p;
			int* q = (int*)a;
			char c = (char)300;
			return (long)(q == p) + c;
		}
	`)
}

func TestStringLiteralType(t *testing.T) {
	u := parseAndCheck(t, `char* msg(void) { return "hello"; }`)
	ret := u.Globals["msg"].Func.Body.Stmts[0].(*Return)
	if ret.X.Type().String() != "char*" {
		t.Errorf("string type = %v", ret.X.Type())
	}
}

func TestCommonTypeRules(t *testing.T) {
	cases := []struct {
		a, b, want *Type
	}{
		{TypeChar, TypeChar, TypeInt},
		{TypeInt, TypeUInt, TypeUInt},
		{TypeInt, TypeLong, TypeLong},
		{TypeULong, TypeInt, TypeULong},
		{TypeUInt, TypeLong, TypeLong},
		{TypeBool, TypeBool, TypeInt},
	}
	for _, c := range cases {
		got := Common(c.a, c.b)
		if !got.Same(c.want) {
			t.Errorf("Common(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestTypeStringAndSame(t *testing.T) {
	fp := PointerTo(FuncType(TypeVoid, []*Type{TypeInt}))
	if fp.String() != "void(int)*" {
		t.Errorf("fp string = %q", fp.String())
	}
	if !fp.Same(PointerTo(FuncType(TypeVoid, []*Type{TypeInt}))) {
		t.Error("structurally equal function pointers not Same")
	}
	if fp.Same(PointerTo(FuncType(TypeVoid, nil))) {
		t.Error("different arities Same")
	}
	arr := ArrayOf(TypeChar, 10)
	if arr.ByteSize() != 10 {
		t.Error("array size")
	}
	if !EnumType("M").Same(EnumType("M")) || EnumType("M").Same(EnumType("N")) {
		t.Error("enum Same by name")
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"int f( { }",
		"int f(void) { if }",
		"int f(void) { return 1 }",
		"int",
		"int x",
		"int f(void) { x ]; }",
		"enum E { };", // empty enums: first expectIdent fails
		"multiverse() int x;",
	} {
		if u, err := Parse("t", src); err == nil {
			if err := Check(u); err == nil {
				t.Errorf("Parse+Check(%q) succeeded", src)
			}
		}
	}
}

func TestMoreThanSixParamsRejected(t *testing.T) {
	expectError(t, "int f(int a, int b, int c, int d, int e, int g, int h) { return 0; }",
		"more than 6 parameters")
}

func TestTernaryTyping(t *testing.T) {
	u := parseAndCheck(t, "long f(int c, int* p, int* q) { int* r = c ? p : q; return c ? 1 : 2; }")
	_ = u
	expectError(t, "void f(int c, int* p) { c ? p : 1; }", "mismatched")
}

func TestSwitchParsing(t *testing.T) {
	u := parseAndCheck(t, `
		enum M { A, B };
		int f(int x) {
			switch (x + 1) {
			case A:
				return 1;
			case B: {
				int t = 2;
				return t;
			}
			case 2 + 3:
				break;
			default:
				return 9;
			}
			return 0;
		}
	`)
	f := u.Globals["f"].Func
	sw := f.Body.Stmts[0].(*Switch)
	if len(sw.Cases) != 4 {
		t.Fatalf("cases = %d", len(sw.Cases))
	}
	if sw.Cases[2].Val != 5 {
		t.Errorf("constant-expression case = %d, want 5", sw.Cases[2].Val)
	}
	if !sw.Cases[3].IsDefault {
		t.Error("default not last")
	}
}

func TestSwitchErrors(t *testing.T) {
	expectError(t, "void f(int x) { switch (x) { case 1: break; case 1: break; } }",
		"duplicate case")
	expectError(t, "void f(int x) { switch (x) { default: break; default: break; } }",
		"multiple default")
	expectError(t, "void f(int x) { switch (x) { case x: break; } }",
		"constant expression")
	expectError(t, "void f(int* p) { switch (p) { case 0: break; } }",
		"requires an integer")
	expectError(t, "void f(int x) { switch (x) { x = 1; case 1: break; } }",
		"before first case")
	expectError(t, "void f(void) { break; }", "outside a loop or switch")
}

func TestSwitchBreakBindsToSwitch(t *testing.T) {
	// break inside a switch is legal even outside any loop.
	parseAndCheck(t, `
		void f(int x) {
			switch (x) {
			case 1:
				break;
			}
		}
	`)
	// continue inside a switch but outside a loop is not.
	expectError(t, "void f(int x) { switch (x) { case 1: continue; } }",
		"continue outside a loop")
}

func TestBindAttributeParsing(t *testing.T) {
	u := parseAndCheck(t, `
		multiverse int a;
		multiverse int b;
		multiverse(bind(a)) void f(void) { if (a && b) { } }
	`)
	f := u.Globals["f"].Func
	if len(f.BindOnly) != 1 || f.BindOnly[0] != "a" {
		t.Errorf("BindOnly = %v", f.BindOnly)
	}
	expectError(t, "multiverse(bind(nope)) void f(void) { }", "not a multiverse configuration switch")
	expectError(t, "int x; multiverse(bind(x)) void f(void) { }", "not a multiverse configuration switch")
	expectError(t, "multiverse(bind(a)) int v;", "belongs on a multiverse function")
	expectError(t, "multiverse(0, 1) void f(void) { }", "belongs on the switch variable")
}
