package cc_test

import (
	"testing"

	"repro/internal/cc"
	"repro/internal/kernelsim"
)

// The parser streams tokens from the lexer, but a lexical error
// anywhere in the source still wins over a parse error, exactly as if
// LexAll had run first.
func TestParseReportsFirstLexError(t *testing.T) {
	for _, src := range []string{
		"int x = ; @",                       // parse error, then a lexical one
		"int x = ; @ $",                     // the first of two lexical errors
		"int x; @",                          // the lexical error ends an otherwise good parse
		"enum @",                            // inside the two-token lookahead
		"int f( { } long y; \"unterminated", // far past the parse error
		"int f(void) { return (int)'ab'; }", // in a cast's lookahead
		"/* open",
	} {
		_, lexErr := cc.LexAll("t.mvc", src)
		if lexErr == nil {
			t.Fatalf("LexAll(%q) succeeded", src)
		}
		_, err := cc.Parse("t.mvc", src)
		if err == nil || err.Error() != lexErr.Error() {
			t.Errorf("Parse(%q) = %v, want the lexical error %v", src, err, lexErr)
		}
	}
}

// Sources that end inside the lookahead window must return an error,
// not read past the end of the window.
func TestParseTruncatedSources(t *testing.T) {
	for _, src := range []string{
		"enum",
		"enum X",
		"int x = (",
		"int f(void) { return (",
		"int f(void",
		"int f(void) { (void",
	} {
		if _, err := cc.Parse("t.mvc", src); err == nil {
			t.Errorf("Parse(%q) succeeded", src)
		}
	}
}

// The Makefile's smoke programs.
const (
	traceSmokeSrc = `multiverse int feature_enabled;
long fast_calls;
void fast_path(void) { fast_calls++; }
void slow_path(void) { }
multiverse void process(void) { if (feature_enabled) { fast_path(); } else { slow_path(); } }
void handle_request(void) { process(); }
`
	checkpointSmokeSrc = `multiverse int mode;
long work;
multiverse void step(void) { if (mode) { work += 3; } else { work += 1; } }
long spin(long n) { long i; for (i = 0; i < n; i++) { step(); } return work; }
`
)

// FuzzParse feeds raw bytes to Parse: it must never panic, and
// whenever LexAll fails, Parse must fail with the same error text.
// Every unit that parses then goes through Check, which must never
// panic either: it must accept the unit or return an error. The
// E7 kernel seed has four call sites rather than 1161: the full kernel
// only repeats the same subsystem function, and the fuzzer spends
// minutes minimizing each new input grown from a 47 KB seed.
func FuzzParse(f *testing.F) {
	f.Add([]byte(kernelsim.ManyCallSitesSource(4).Text))
	f.Add([]byte(traceSmokeSrc))
	f.Add([]byte(checkpointSmokeSrc))
	f.Fuzz(func(t *testing.T, data []byte) {
		src := string(data)
		u, err := cc.Parse("fuzz.mvc", src)
		if _, lexErr := cc.LexAll("fuzz.mvc", src); lexErr != nil {
			if err == nil || err.Error() != lexErr.Error() {
				t.Fatalf("Parse = %v, want the lexical error %v", err, lexErr)
			}
		}
		if err == nil {
			_ = cc.Check(u)
		}
	})
}
