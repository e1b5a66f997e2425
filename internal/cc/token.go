// Package cc implements the front end of the MVC language: a C subset
// extended with the multiverse attribute of the paper.
//
// MVC keeps exactly the C surface the paper's case studies need:
// integer and enum types, pointers, global/static variables, functions,
// the usual statements and operators, plus a handful of compiler
// builtins that map to privileged or atomic m64 instructions. The only
// extension over plain C is the `multiverse` declaration attribute
// (with an optional explicit value domain) and the `noscratch`
// function attribute modelling the Linux PV-Ops custom calling
// convention.
package cc

import "fmt"

// Pos is a source position.
type Pos struct {
	File string
	Line int
	Col  int
}

// String renders the position as file:line:col.
func (p Pos) String() string {
	return fmt.Sprintf("%s:%d:%d", p.File, p.Line, p.Col)
}

// TokKind enumerates token kinds.
type TokKind int

// Token kinds.
const (
	TokEOF TokKind = iota
	TokIdent
	TokNumber
	TokChar   // character literal
	TokString // string literal
	TokPunct  // operators and punctuation
	TokKeyword
)

// Token is one lexical token.
type Token struct {
	Kind TokKind
	Text string // identifier, keyword or punctuation text
	Num  int64  // for TokNumber / TokChar
	Str  string // for TokString (decoded)
	Pos  Pos
}

func (t Token) String() string {
	switch t.Kind {
	case TokEOF:
		return "end of file"
	case TokNumber:
		return fmt.Sprintf("number %d", t.Num)
	case TokChar:
		return fmt.Sprintf("char %q", rune(t.Num))
	case TokString:
		return fmt.Sprintf("string %q", t.Str)
	default:
		return fmt.Sprintf("%q", t.Text)
	}
}

var keywords = map[string]bool{
	"void": true, "bool": true, "char": true, "short": true, "int": true,
	"long": true, "uchar": true, "ushort": true, "uint": true, "ulong": true,
	"enum": true, "if": true, "else": true, "while": true, "do": true,
	"for": true, "break": true, "continue": true, "return": true,
	"switch": true, "case": true, "default": true,
	"static": true, "extern": true, "multiverse": true, "noscratch": true,
	"true": true, "false": true,
}

// Error is a front-end diagnostic.
type Error struct {
	Pos Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

func errf(pos Pos, format string, args ...interface{}) error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// Lexer turns MVC source into tokens.
type Lexer struct {
	src  string
	file string
	off  int
	line int
	col  int
}

// NewLexer returns a lexer for src; file is used in positions.
func NewLexer(file, src string) *Lexer {
	return &Lexer{src: src, file: file, line: 1, col: 1}
}

func (l *Lexer) pos() Pos { return Pos{File: l.file, Line: l.line, Col: l.col} }

func (l *Lexer) peekByte() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *Lexer) peekByte2() byte {
	if l.off+1 >= len(l.src) {
		return 0
	}
	return l.src[l.off+1]
}

func (l *Lexer) advance() byte {
	b := l.src[l.off]
	l.off++
	if b == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return b
}

func (l *Lexer) skipSpaceAndComments() error {
	for l.off < len(l.src) {
		b := l.peekByte()
		switch {
		case b == ' ' || b == '\t' || b == '\r' || b == '\n':
			l.advance()
		case b == '/' && l.peekByte2() == '/':
			for l.off < len(l.src) && l.peekByte() != '\n' {
				l.advance()
			}
		case b == '/' && l.peekByte2() == '*':
			start := l.pos()
			l.advance()
			l.advance()
			for {
				if l.off >= len(l.src) {
					return errf(start, "unterminated block comment")
				}
				if l.peekByte() == '*' && l.peekByte2() == '/' {
					l.advance()
					l.advance()
					break
				}
				l.advance()
			}
		default:
			return nil
		}
	}
	return nil
}

func isIdentStart(b byte) bool {
	return b == '_' || (b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z')
}

func isDigit(b byte) bool { return b >= '0' && b <= '9' }

func isIdentCont(b byte) bool { return isIdentStart(b) || isDigit(b) }

// multi-byte punctuation, longest first.
var puncts = []string{
	"<<=", ">>=", "&&", "||", "==", "!=", "<=", ">=", "<<", ">>",
	"+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--", "->",
	"+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "<", ">", "=",
	"(", ")", "{", "}", "[", "]", ",", ";", ":", "?",
}

func (l *Lexer) escape(pos Pos) (byte, error) {
	if l.off >= len(l.src) {
		return 0, errf(pos, "unterminated escape")
	}
	b := l.advance()
	switch b {
	case 'n':
		return '\n', nil
	case 't':
		return '\t', nil
	case 'r':
		return '\r', nil
	case '0':
		return 0, nil
	case '\\', '\'', '"':
		return b, nil
	}
	return 0, errf(pos, "unknown escape \\%c", b)
}

// Next returns the next token.
func (l *Lexer) Next() (Token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	pos := l.pos()
	if l.off >= len(l.src) {
		return Token{Kind: TokEOF, Pos: pos}, nil
	}
	b := l.peekByte()

	switch {
	case isIdentStart(b):
		start := l.off
		for l.off < len(l.src) && isIdentCont(l.peekByte()) {
			l.advance()
		}
		text := l.src[start:l.off]
		kind := TokIdent
		if keywords[text] {
			kind = TokKeyword
		}
		return Token{Kind: kind, Text: text, Pos: pos}, nil

	case isDigit(b):
		start := l.off
		base := int64(10)
		if b == '0' && (l.peekByte2() == 'x' || l.peekByte2() == 'X') {
			l.advance()
			l.advance()
			base = 16
			start = l.off
		}
		for l.off < len(l.src) {
			c := l.peekByte()
			if isDigit(c) || (base == 16 && ((c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F'))) {
				l.advance()
			} else {
				break
			}
		}
		text := l.src[start:l.off]
		if text == "" {
			return Token{}, errf(pos, "malformed number")
		}
		var v int64
		for i := 0; i < len(text); i++ {
			c := text[i]
			var d int64
			switch {
			case isDigit(c):
				d = int64(c - '0')
			case c >= 'a' && c <= 'f':
				d = int64(c-'a') + 10
			case c >= 'A' && c <= 'F':
				d = int64(c-'A') + 10
			}
			v = v*base + d
		}
		return Token{Kind: TokNumber, Num: v, Pos: pos}, nil

	case b == '\'':
		l.advance()
		if l.off >= len(l.src) {
			return Token{}, errf(pos, "unterminated char literal")
		}
		var c byte
		if l.peekByte() == '\\' {
			l.advance()
			var err error
			c, err = l.escape(pos)
			if err != nil {
				return Token{}, err
			}
		} else {
			c = l.advance()
		}
		if l.off >= len(l.src) || l.advance() != '\'' {
			return Token{}, errf(pos, "unterminated char literal")
		}
		return Token{Kind: TokChar, Num: int64(c), Pos: pos}, nil

	case b == '"':
		l.advance()
		var out []byte
		for {
			if l.off >= len(l.src) {
				return Token{}, errf(pos, "unterminated string literal")
			}
			c := l.advance()
			if c == '"' {
				break
			}
			if c == '\\' {
				e, err := l.escape(pos)
				if err != nil {
					return Token{}, err
				}
				out = append(out, e)
				continue
			}
			out = append(out, c)
		}
		return Token{Kind: TokString, Str: string(out), Pos: pos}, nil
	}

	for _, p := range puncts {
		if p[0] == b && len(l.src)-l.off >= len(p) && l.src[l.off:l.off+len(p)] == p {
			for range p {
				l.advance()
			}
			return Token{Kind: TokPunct, Text: p, Pos: pos}, nil
		}
	}
	return Token{}, errf(pos, "unexpected character %q", rune(b))
}

// LexAll tokenizes the whole input (for tests and tooling).
func LexAll(file, src string) ([]Token, error) {
	l := NewLexer(file, src)
	var out []Token
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.Kind == TokEOF {
			return out, nil
		}
	}
}
