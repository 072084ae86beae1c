package lang

import (
	"fmt"
	"strings"
)

// Lexer converts FJ source text into a token stream. It supports // line
// comments and /* */ block comments, decimal integer, long (L suffix) and
// double literals, and double-quoted string literals with \n \t \\ \" \r \0
// escapes.
type Lexer struct {
	src  string
	file string
	off  int
	line int32
	col  int32
}

// NewLexer returns a lexer over src; file is used in positions and errors.
func NewLexer(file, src string) *Lexer {
	return &Lexer{src: src, file: file, line: 1, col: 1}
}

// Lex tokenizes the whole input, returning the tokens terminated by an EOF
// token, or the first lexical error.
func Lex(file, src string) ([]Token, error) {
	lx := NewLexer(file, src)
	// One allocation up front: the repo's FJ corpus (the stdlib, the three
	// engines, the daemon scenarios, the examples) runs 3.3 to 5.1 source
	// bytes per token, so a byte-count third holds every file of it.
	toks := make([]Token, 0, len(src)/3+1)
	for {
		t, err := lx.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == TokEOF {
			return toks, nil
		}
	}
}

func (lx *Lexer) pos() Pos { return Pos{File: lx.file, Line: lx.line, Col: lx.col} }

func (lx *Lexer) peek() byte {
	if lx.off >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off]
}

func (lx *Lexer) peek2() byte {
	if lx.off+1 >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off+1]
}

func (lx *Lexer) advance() byte {
	c := lx.src[lx.off]
	lx.off++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

func (lx *Lexer) errf(p Pos, format string, args ...any) error {
	return fmt.Errorf("%s: %s", p, fmt.Sprintf(format, args...))
}

func (lx *Lexer) skipSpaceAndComments() error {
	for lx.off < len(lx.src) {
		c := lx.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			lx.advance()
		case c == '/' && lx.peek2() == '/':
			for lx.off < len(lx.src) && lx.peek() != '\n' {
				lx.advance()
			}
		case c == '/' && lx.peek2() == '*':
			p := lx.pos()
			lx.advance()
			lx.advance()
			closed := false
			for lx.off < len(lx.src) {
				if lx.peek() == '*' && lx.peek2() == '/' {
					lx.advance()
					lx.advance()
					closed = true
					break
				}
				lx.advance()
			}
			if !closed {
				return lx.errf(p, "unterminated block comment")
			}
		default:
			return nil
		}
	}
	return nil
}

func isIdentStart(c byte) bool {
	return c == '_' || c == '$' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentCont(c byte) bool { return isIdentStart(c) || isDigit(c) }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// Next returns the next token.
func (lx *Lexer) Next() (Token, error) {
	if err := lx.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	p := lx.pos()
	if lx.off >= len(lx.src) {
		return Token{Kind: TokEOF, Line: p.Line, Col: p.Col}, nil
	}
	c := lx.peek()
	switch {
	case isIdentStart(c):
		start := lx.off
		for lx.off < len(lx.src) && isIdentCont(lx.peek()) {
			lx.advance()
		}
		text := lx.src[start:lx.off]
		if k, ok := keywords[text]; ok {
			return Token{Kind: k, Text: text, Line: p.Line, Col: p.Col}, nil
		}
		return Token{Kind: TokIdent, Text: text, Line: p.Line, Col: p.Col}, nil
	case isDigit(c):
		return lx.lexNumber(p)
	case c == '"':
		return lx.lexString(p)
	}
	lx.advance()
	two := func(next byte, k2, k1 TokKind) Token {
		if lx.peek() == next {
			lx.advance()
			return Token{Kind: k2, Text: tokNames[k2], Line: p.Line, Col: p.Col}
		}
		return Token{Kind: k1, Text: tokNames[k1], Line: p.Line, Col: p.Col}
	}
	switch c {
	case '(':
		return Token{Kind: TokLParen, Text: "(", Line: p.Line, Col: p.Col}, nil
	case ')':
		return Token{Kind: TokRParen, Text: ")", Line: p.Line, Col: p.Col}, nil
	case '{':
		return Token{Kind: TokLBrace, Text: "{", Line: p.Line, Col: p.Col}, nil
	case '}':
		return Token{Kind: TokRBrace, Text: "}", Line: p.Line, Col: p.Col}, nil
	case '[':
		return Token{Kind: TokLBracket, Text: "[", Line: p.Line, Col: p.Col}, nil
	case ']':
		return Token{Kind: TokRBracket, Text: "]", Line: p.Line, Col: p.Col}, nil
	case ';':
		return Token{Kind: TokSemi, Text: ";", Line: p.Line, Col: p.Col}, nil
	case ',':
		return Token{Kind: TokComma, Text: ",", Line: p.Line, Col: p.Col}, nil
	case '.':
		return Token{Kind: TokDot, Text: ".", Line: p.Line, Col: p.Col}, nil
	case '+':
		return Token{Kind: TokPlus, Text: "+", Line: p.Line, Col: p.Col}, nil
	case '-':
		return Token{Kind: TokMinus, Text: "-", Line: p.Line, Col: p.Col}, nil
	case '*':
		return Token{Kind: TokStar, Text: "*", Line: p.Line, Col: p.Col}, nil
	case '/':
		return Token{Kind: TokSlash, Text: "/", Line: p.Line, Col: p.Col}, nil
	case '%':
		return Token{Kind: TokPercent, Text: "%", Line: p.Line, Col: p.Col}, nil
	case '^':
		return Token{Kind: TokCaret, Text: "^", Line: p.Line, Col: p.Col}, nil
	case '=':
		return two('=', TokEq, TokAssign), nil
	case '!':
		return two('=', TokNe, TokNot), nil
	case '<':
		if lx.peek() == '<' {
			lx.advance()
			return Token{Kind: TokShl, Text: "<<", Line: p.Line, Col: p.Col}, nil
		}
		return two('=', TokLe, TokLt), nil
	case '>':
		if lx.peek() == '>' {
			lx.advance()
			return Token{Kind: TokShr, Text: ">>", Line: p.Line, Col: p.Col}, nil
		}
		return two('=', TokGe, TokGt), nil
	case '&':
		return two('&', TokAndAnd, TokAnd), nil
	case '|':
		return two('|', TokOrOr, TokOr), nil
	}
	return Token{}, lx.errf(p, "unexpected character %q", string(c))
}

func (lx *Lexer) lexNumber(p Pos) (Token, error) {
	start := lx.off
	for lx.off < len(lx.src) && isDigit(lx.peek()) {
		lx.advance()
	}
	isDouble := false
	if lx.peek() == '.' && isDigit(lx.peek2()) {
		isDouble = true
		lx.advance()
		for lx.off < len(lx.src) && isDigit(lx.peek()) {
			lx.advance()
		}
	}
	if lx.peek() == 'e' || lx.peek() == 'E' {
		save := lx.off
		lx.advance()
		if lx.peek() == '+' || lx.peek() == '-' {
			lx.advance()
		}
		if isDigit(lx.peek()) {
			isDouble = true
			for lx.off < len(lx.src) && isDigit(lx.peek()) {
				lx.advance()
			}
		} else {
			lx.off = save
		}
	}
	text := lx.src[start:lx.off]
	if isDouble {
		return Token{Kind: TokDoubleLit, Text: text, Line: p.Line, Col: p.Col}, nil
	}
	if lx.peek() == 'L' || lx.peek() == 'l' {
		lx.advance()
		return Token{Kind: TokLongLit, Text: text, Line: p.Line, Col: p.Col}, nil
	}
	return Token{Kind: TokIntLit, Text: text, Line: p.Line, Col: p.Col}, nil
}

func (lx *Lexer) lexString(p Pos) (Token, error) {
	lx.advance() // opening quote
	var sb strings.Builder
	for {
		if lx.off >= len(lx.src) {
			return Token{}, lx.errf(p, "unterminated string literal")
		}
		c := lx.advance()
		switch c {
		case '"':
			return Token{Kind: TokStringLit, Text: sb.String(), Line: p.Line, Col: p.Col}, nil
		case '\n':
			return Token{}, lx.errf(p, "newline in string literal")
		case '\\':
			if lx.off >= len(lx.src) {
				return Token{}, lx.errf(p, "unterminated escape")
			}
			e := lx.advance()
			switch e {
			case 'n':
				sb.WriteByte('\n')
			case 't':
				sb.WriteByte('\t')
			case 'r':
				sb.WriteByte('\r')
			case '0':
				sb.WriteByte(0)
			case '\\':
				sb.WriteByte('\\')
			case '"':
				sb.WriteByte('"')
			default:
				return Token{}, lx.errf(p, "unknown escape \\%s", string(e))
			}
		default:
			sb.WriteByte(c)
		}
	}
}
