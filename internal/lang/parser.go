package lang

import (
	"fmt"
	"strconv"
)

// Parser is a recursive-descent parser for FJ.
type Parser struct {
	toks []Token
	pos  int
	file string
}

// Parse parses one FJ compilation unit.
func Parse(file, src string) (*File, error) {
	toks, err := Lex(file, src)
	if err != nil {
		return nil, err
	}
	return ParseTokens(file, toks)
}

// ParseTokens parses one FJ compilation unit from its token stream, as Lex
// returns it (ending in the EOF token). The parser only reads toks, so one
// token slice may be parsed any number of times, by any number of
// goroutines at once: internal/stdlib lexes the standard library once per
// process and parses it from the same tokens on every compile.
func ParseTokens(file string, toks []Token) (*File, error) {
	p := &Parser{toks: toks, file: file}
	return p.parseFile()
}

func (p *Parser) cur() Token  { return p.toks[p.pos] }
func (p *Parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }
func (p *Parser) at(k TokKind) bool {
	return p.toks[p.pos].Kind == k
}
func (p *Parser) peekKind(n int) TokKind {
	if p.pos+n >= len(p.toks) {
		return TokEOF
	}
	return p.toks[p.pos+n].Kind
}

// posOf returns t's position in the file being parsed.
func (p *Parser) posOf(t Token) Pos { return Pos{File: p.file, Line: t.Line, Col: t.Col} }

func (p *Parser) accept(k TokKind) bool {
	if p.at(k) {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) expect(k TokKind) (Token, error) {
	if p.at(k) {
		return p.next(), nil
	}
	t := p.cur()
	return t, fmt.Errorf("%s: expected %s, found %s %q", p.posOf(t), k, t.Kind, t.Text)
}

func (p *Parser) parseFile() (*File, error) {
	f := &File{Name: p.file}
	for !p.at(TokEOF) {
		switch p.cur().Kind {
		case TokClass:
			c, err := p.parseClass()
			if err != nil {
				return nil, err
			}
			f.Classes = append(f.Classes, c)
		case TokInterface:
			i, err := p.parseIface()
			if err != nil {
				return nil, err
			}
			f.Ifaces = append(f.Ifaces, i)
		default:
			t := p.cur()
			return nil, fmt.Errorf("%s: expected class or interface, found %q", p.posOf(t), t.Text)
		}
	}
	return f, nil
}

func (p *Parser) parseClass() (*ClassDecl, error) {
	kw, _ := p.expect(TokClass)
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	c := &ClassDecl{Pos: p.posOf(kw), Name: name.Text}
	if p.accept(TokExtends) {
		s, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		c.Extends = s.Text
	}
	if p.accept(TokImplements) {
		for {
			i, err := p.expect(TokIdent)
			if err != nil {
				return nil, err
			}
			c.Implements = append(c.Implements, i.Text)
			if !p.accept(TokComma) {
				break
			}
		}
	}
	if _, err := p.expect(TokLBrace); err != nil {
		return nil, err
	}
	for !p.at(TokRBrace) {
		if err := p.parseMember(c); err != nil {
			return nil, err
		}
	}
	p.next() // }
	return c, nil
}

func (p *Parser) parseIface() (*IfaceDecl, error) {
	kw, _ := p.expect(TokInterface)
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	i := &IfaceDecl{Pos: p.posOf(kw), Name: name.Text}
	if _, err := p.expect(TokLBrace); err != nil {
		return nil, err
	}
	for !p.at(TokRBrace) {
		ret, err := p.parseTypeExpr()
		if err != nil {
			return nil, err
		}
		mn, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		params, err := p.parseParams()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		i.Methods = append(i.Methods, &MethodDecl{
			Pos: p.posOf(mn), Name: mn.Text, Params: params, Ret: ret,
		})
	}
	p.next() // }
	return i, nil
}

// parseMember parses one field, method, or constructor inside class c.
func (p *Parser) parseMember(c *ClassDecl) error {
	static := p.accept(TokStatic)
	// Constructor: Ident '(' where Ident == class name.
	if !static && p.at(TokIdent) && p.cur().Text == c.Name && p.peekKind(1) == TokLParen {
		nameTok := p.next()
		params, err := p.parseParams()
		if err != nil {
			return err
		}
		body, err := p.parseBlock()
		if err != nil {
			return err
		}
		if c.Ctor != nil {
			return fmt.Errorf("%s: duplicate constructor for %s", p.posOf(nameTok), c.Name)
		}
		c.Ctor = &MethodDecl{
			Pos: p.posOf(nameTok), Name: c.Name, IsCtor: true,
			Params: params, Ret: TypeExpr{Kind: TVoid}, Body: body,
		}
		return nil
	}
	t, err := p.parseTypeExpr()
	if err != nil {
		return err
	}
	name, err := p.expect(TokIdent)
	if err != nil {
		return err
	}
	if p.at(TokLParen) {
		params, err := p.parseParams()
		if err != nil {
			return err
		}
		body, err := p.parseBlock()
		if err != nil {
			return err
		}
		c.Methods = append(c.Methods, &MethodDecl{
			Pos: p.posOf(name), Name: name.Text, Static: static,
			Params: params, Ret: t, Body: body,
		})
		return nil
	}
	if _, err := p.expect(TokSemi); err != nil {
		return err
	}
	c.Fields = append(c.Fields, &FieldDecl{
		Pos: p.posOf(name), Name: name.Text, Type: t, Static: static,
	})
	return nil
}

func (p *Parser) parseParams() ([]Param, error) {
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	var params []Param
	for !p.at(TokRParen) {
		if len(params) > 0 {
			if _, err := p.expect(TokComma); err != nil {
				return nil, err
			}
		}
		t, err := p.parseTypeExpr()
		if err != nil {
			return nil, err
		}
		n, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		params = append(params, Param{Pos: p.posOf(n), Name: n.Text, Type: t})
	}
	p.next() // )
	return params, nil
}

func (p *Parser) parseTypeExpr() (TypeExpr, error) {
	t := p.cur()
	te := TypeExpr{Pos: p.posOf(t)}
	switch t.Kind {
	case TokBooleanKw:
		te.Kind = TBool
	case TokByteKw:
		te.Kind = TByte
	case TokIntKw:
		te.Kind = TInt
	case TokLongKw:
		te.Kind = TLong
	case TokDoubleKw:
		te.Kind = TDouble
	case TokVoidKw:
		te.Kind = TVoid
	case TokIdent:
		te.Kind = TClass
		te.Name = t.Text
	default:
		return te, fmt.Errorf("%s: expected type, found %q", p.posOf(t), t.Text)
	}
	p.next()
	for p.at(TokLBracket) && p.peekKind(1) == TokRBracket {
		p.next()
		p.next()
		te.Dims++
	}
	return te, nil
}

// ---------------------------------------------------------------------------
// Statements

func (p *Parser) parseBlock() (*BlockStmt, error) {
	lb, err := p.expect(TokLBrace)
	if err != nil {
		return nil, err
	}
	b := &BlockStmt{Pos: p.posOf(lb)}
	for !p.at(TokRBrace) {
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s)
	}
	p.next() // }
	return b, nil
}

func (p *Parser) parseStmt() (Stmt, error) {
	t := p.cur()
	switch t.Kind {
	case TokLBrace:
		return p.parseBlock()
	case TokIf:
		return p.parseIf()
	case TokWhile:
		return p.parseWhile()
	case TokFor:
		return p.parseFor()
	case TokReturn:
		p.next()
		rs := &ReturnStmt{Pos: p.posOf(t)}
		if !p.at(TokSemi) {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			rs.Value = e
		}
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return rs, nil
	case TokBreak:
		p.next()
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return &BreakStmt{Pos: p.posOf(t)}, nil
	case TokContinue:
		p.next()
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return &ContinueStmt{Pos: p.posOf(t)}, nil
	case TokSynchronized:
		p.next()
		if _, err := p.expect(TokLParen); err != nil {
			return nil, err
		}
		lock, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		body, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		return &SyncStmt{Pos: p.posOf(t), Lock: lock, Body: body}, nil
	}
	s, err := p.parseSimpleStmt()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}
	return s, nil
}

// parseSimpleStmt parses a declaration, assignment, or expression statement
// (no trailing semicolon) — the forms allowed in for-clauses.
func (p *Parser) parseSimpleStmt() (Stmt, error) {
	if p.isDeclStart() {
		return p.parseVarDecl()
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.at(TokAssign) {
		p.next()
		v, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		switch e.(type) {
		case *IdentExpr, *FieldExpr, *IndexExpr:
		default:
			return nil, fmt.Errorf("%s: invalid assignment target", p.posOf(p.cur()))
		}
		return &AssignStmt{Pos: p.posOf(p.cur()), Target: e, Value: v}, nil
	}
	if _, ok := e.(*CallExpr); !ok {
		return nil, fmt.Errorf("%s: expression statement must be a call", p.posOf(p.cur()))
	}
	return &ExprStmt{Pos: p.posOf(p.cur()), X: e}, nil
}

// isDeclStart reports whether the upcoming tokens begin a local variable
// declaration: a primitive type, or Ident ([])* Ident.
func (p *Parser) isDeclStart() bool {
	switch p.cur().Kind {
	case TokBooleanKw, TokByteKw, TokIntKw, TokLongKw, TokDoubleKw:
		return true
	case TokIdent:
		i := 1
		for p.peekKind(i) == TokLBracket && p.peekKind(i+1) == TokRBracket {
			i += 2
		}
		return p.peekKind(i) == TokIdent
	}
	return false
}

func (p *Parser) parseVarDecl() (Stmt, error) {
	t, err := p.parseTypeExpr()
	if err != nil {
		return nil, err
	}
	n, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	d := &VarDeclStmt{Pos: p.posOf(n), Name: n.Text, Type: t}
	if p.accept(TokAssign) {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		d.Init = e
	}
	return d, nil
}

func (p *Parser) parseIf() (Stmt, error) {
	kw := p.next()
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	then, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	is := &IfStmt{Pos: p.posOf(kw), Cond: cond, Then: then}
	if p.accept(TokElse) {
		els, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		is.Else = els
	}
	return is, nil
}

func (p *Parser) parseWhile() (Stmt, error) {
	kw := p.next()
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	return &WhileStmt{Pos: p.posOf(kw), Cond: cond, Body: body}, nil
}

func (p *Parser) parseFor() (Stmt, error) {
	kw := p.next()
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	fs := &ForStmt{Pos: p.posOf(kw)}
	if !p.at(TokSemi) {
		s, err := p.parseSimpleStmt()
		if err != nil {
			return nil, err
		}
		fs.Init = s
	}
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}
	if !p.at(TokSemi) {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		fs.Cond = e
	}
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}
	if !p.at(TokRParen) {
		s, err := p.parseSimpleStmt()
		if err != nil {
			return nil, err
		}
		fs.Post = s
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	fs.Body = body
	return fs, nil
}

// ---------------------------------------------------------------------------
// Expressions (precedence climbing)

func (p *Parser) parseExpr() (Expr, error) { return p.parseOrOr() }

func (p *Parser) parseBinaryLevel(sub func() (Expr, error), ops ...TokKind) (Expr, error) {
	x, err := sub()
	if err != nil {
		return nil, err
	}
	for {
		matched := false
		for _, op := range ops {
			if p.at(op) {
				t := p.next()
				y, err := sub()
				if err != nil {
					return nil, err
				}
				x = &BinaryExpr{Pos: p.posOf(t), Op: op, X: x, Y: y}
				matched = true
				break
			}
		}
		if !matched {
			return x, nil
		}
	}
}

func (p *Parser) parseOrOr() (Expr, error) {
	return p.parseBinaryLevel(p.parseAndAnd, TokOrOr)
}
func (p *Parser) parseAndAnd() (Expr, error) {
	return p.parseBinaryLevel(p.parseBitOr, TokAndAnd)
}
func (p *Parser) parseBitOr() (Expr, error) {
	return p.parseBinaryLevel(p.parseBitXor, TokOr)
}
func (p *Parser) parseBitXor() (Expr, error) {
	return p.parseBinaryLevel(p.parseBitAnd, TokCaret)
}
func (p *Parser) parseBitAnd() (Expr, error) {
	return p.parseBinaryLevel(p.parseEquality, TokAnd)
}
func (p *Parser) parseEquality() (Expr, error) {
	return p.parseBinaryLevel(p.parseRelational, TokEq, TokNe)
}

func (p *Parser) parseRelational() (Expr, error) {
	x, err := p.parseShift()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.at(TokLt) || p.at(TokLe) || p.at(TokGt) || p.at(TokGe):
			t := p.next()
			y, err := p.parseShift()
			if err != nil {
				return nil, err
			}
			x = &BinaryExpr{Pos: p.posOf(t), Op: t.Kind, X: x, Y: y}
		case p.at(TokInstanceof):
			t := p.next()
			target, err := p.parseTypeExpr()
			if err != nil {
				return nil, err
			}
			x = &InstanceOfExpr{Pos: p.posOf(t), X: x, Target: target}
		default:
			return x, nil
		}
	}
}

func (p *Parser) parseShift() (Expr, error) {
	return p.parseBinaryLevel(p.parseAdditive, TokShl, TokShr)
}
func (p *Parser) parseAdditive() (Expr, error) {
	return p.parseBinaryLevel(p.parseMultiplicative, TokPlus, TokMinus)
}
func (p *Parser) parseMultiplicative() (Expr, error) {
	return p.parseBinaryLevel(p.parseUnary, TokStar, TokSlash, TokPercent)
}

func (p *Parser) parseUnary() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case TokMinus, TokNot:
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Pos: p.posOf(t), Op: t.Kind, X: x}, nil
	}
	if t.Kind == TokLParen && p.isCastStart() {
		p.next() // (
		target, err := p.parseTypeExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &CastExpr{Pos: p.posOf(t), Target: target, X: x}, nil
	}
	return p.parsePostfix()
}

// isCastStart disambiguates "(T) expr" casts from parenthesized
// expressions. A cast requires a type inside the parens and a token that can
// begin a unary expression after the closing paren; "-" and "(" are
// excluded for identifier targets to keep "(x) - y" and "(x)(...)" as
// expressions.
func (p *Parser) isCastStart() bool {
	k1 := p.peekKind(1)
	switch k1 {
	case TokBooleanKw, TokByteKw, TokIntKw, TokLongKw, TokDoubleKw:
		return true
	case TokIdent:
	default:
		return false
	}
	i := 2
	for p.peekKind(i) == TokLBracket && p.peekKind(i+1) == TokRBracket {
		i += 2
	}
	if p.peekKind(i) != TokRParen {
		return false
	}
	switch p.peekKind(i + 1) {
	case TokIdent, TokThis, TokNull, TokNew, TokIntLit, TokLongLit,
		TokDoubleLit, TokStringLit, TokTrue, TokFalse, TokNot:
		return true
	}
	return false
}

func (p *Parser) parsePostfix() (Expr, error) {
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.at(TokDot):
			p.next()
			name, err := p.expect(TokIdent)
			if err != nil {
				return nil, err
			}
			if p.at(TokLParen) {
				args, err := p.parseArgs()
				if err != nil {
					return nil, err
				}
				x = &CallExpr{Pos: p.posOf(name), Recv: x, Method: name.Text, Args: args}
			} else {
				x = &FieldExpr{Pos: p.posOf(name), X: x, Name: name.Text}
			}
		case p.at(TokLBracket):
			lb := p.next()
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokRBracket); err != nil {
				return nil, err
			}
			x = &IndexExpr{Pos: p.posOf(lb), X: x, Index: idx}
		default:
			return x, nil
		}
	}
}

func (p *Parser) parseArgs() ([]Expr, error) {
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	var args []Expr
	for !p.at(TokRParen) {
		if len(args) > 0 {
			if _, err := p.expect(TokComma); err != nil {
				return nil, err
			}
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		args = append(args, e)
	}
	p.next() // )
	return args, nil
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case TokIntLit:
		p.next()
		v, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil || v > 1<<31 {
			return nil, fmt.Errorf("%s: bad int literal %q", p.posOf(t), t.Text)
		}
		return &IntLit{Pos: p.posOf(t), Val: int32(v)}, nil
	case TokLongLit:
		p.next()
		v, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%s: bad long literal %q", p.posOf(t), t.Text)
		}
		return &LongLit{Pos: p.posOf(t), Val: v}, nil
	case TokDoubleLit:
		p.next()
		v, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, fmt.Errorf("%s: bad double literal %q", p.posOf(t), t.Text)
		}
		return &DoubleLit{Pos: p.posOf(t), Val: v}, nil
	case TokStringLit:
		p.next()
		return &StringLit{Pos: p.posOf(t), Val: t.Text}, nil
	case TokTrue, TokFalse:
		p.next()
		return &BoolLit{Pos: p.posOf(t), Val: t.Kind == TokTrue}, nil
	case TokNull:
		p.next()
		return &NullLit{Pos: p.posOf(t)}, nil
	case TokThis:
		p.next()
		return &ThisExpr{Pos: p.posOf(t)}, nil
	case TokIdent:
		p.next()
		return &IdentExpr{Pos: p.posOf(t), Name: t.Text}, nil
	case TokLParen:
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		return e, nil
	case TokNew:
		return p.parseNew()
	}
	return nil, fmt.Errorf("%s: unexpected token %q in expression", p.posOf(t), t.Text)
}

func (p *Parser) parseNew() (Expr, error) {
	kw := p.next()
	te, err := p.parseBaseTypeForNew()
	if err != nil {
		return nil, err
	}
	if p.at(TokLParen) {
		if te.Kind != TClass {
			return nil, fmt.Errorf("%s: cannot construct primitive type", p.posOf(kw))
		}
		args, err := p.parseArgs()
		if err != nil {
			return nil, err
		}
		return &NewExpr{Pos: p.posOf(kw), Class: te.Name, Args: args}, nil
	}
	if _, err := p.expect(TokLBracket); err != nil {
		return nil, err
	}
	length, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokRBracket); err != nil {
		return nil, err
	}
	// Trailing empty dims: new T[n][][] — the element type gains dims.
	for p.at(TokLBracket) && p.peekKind(1) == TokRBracket {
		p.next()
		p.next()
		te.Dims++
	}
	return &NewArrayExpr{Pos: p.posOf(kw), Elem: te, Len: length}, nil
}

// parseBaseTypeForNew parses the base type after `new` (no [] suffixes —
// those are handled by the caller).
func (p *Parser) parseBaseTypeForNew() (TypeExpr, error) {
	t := p.cur()
	te := TypeExpr{Pos: p.posOf(t)}
	switch t.Kind {
	case TokBooleanKw:
		te.Kind = TBool
	case TokByteKw:
		te.Kind = TByte
	case TokIntKw:
		te.Kind = TInt
	case TokLongKw:
		te.Kind = TLong
	case TokDoubleKw:
		te.Kind = TDouble
	case TokIdent:
		te.Kind = TClass
		te.Name = t.Text
	default:
		return te, fmt.Errorf("%s: expected type after new, found %q", p.posOf(t), t.Text)
	}
	p.next()
	return te, nil
}
