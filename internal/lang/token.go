// Package lang implements the frontend for FJ, the small statically typed
// object-oriented language in which the data paths of the benchmark
// frameworks are written. FJ plays the role Java plays in the FACADE paper:
// programs are parsed, type-checked, lowered to the register IR in
// internal/ir, and either executed directly against the managed heap or
// first rewritten by the FACADE transform in internal/core.
//
// FJ is a Java subset: classes with single inheritance, interfaces, static
// and instance fields and methods, one-dimensional and nested arrays,
// synchronized blocks, instanceof, casts, and string literals. There are no
// generics, exceptions, or reflection; those features are not needed by the
// transform (Table 1 of the paper) or by the evaluated workloads.
package lang

import "fmt"

// TokKind enumerates lexical token kinds.
type TokKind int

// Token kinds. Keyword kinds follow the operator kinds.
const (
	TokEOF TokKind = iota
	TokIdent
	TokIntLit
	TokLongLit
	TokDoubleLit
	TokStringLit

	TokLParen
	TokRParen
	TokLBrace
	TokRBrace
	TokLBracket
	TokRBracket
	TokSemi
	TokComma
	TokDot

	TokAssign // =
	TokPlus
	TokMinus
	TokStar
	TokSlash
	TokPercent
	TokNot    // !
	TokLt     // <
	TokLe     // <=
	TokGt     // >
	TokGe     // >=
	TokEq     // ==
	TokNe     // !=
	TokAndAnd // &&
	TokOrOr   // ||
	TokAnd    // &
	TokOr     // |
	TokCaret  // ^
	TokShl    // <<
	TokShr    // >>

	TokClass
	TokInterface
	TokExtends
	TokImplements
	TokStatic
	TokIf
	TokElse
	TokWhile
	TokFor
	TokReturn
	TokBreak
	TokContinue
	TokNew
	TokThis
	TokNull
	TokTrue
	TokFalse
	TokInstanceof
	TokSynchronized
	TokBooleanKw
	TokByteKw
	TokIntKw
	TokLongKw
	TokDoubleKw
	TokVoidKw
)

var keywords = map[string]TokKind{
	"class":        TokClass,
	"interface":    TokInterface,
	"extends":      TokExtends,
	"implements":   TokImplements,
	"static":       TokStatic,
	"if":           TokIf,
	"else":         TokElse,
	"while":        TokWhile,
	"for":          TokFor,
	"return":       TokReturn,
	"break":        TokBreak,
	"continue":     TokContinue,
	"new":          TokNew,
	"this":         TokThis,
	"null":         TokNull,
	"true":         TokTrue,
	"false":        TokFalse,
	"instanceof":   TokInstanceof,
	"synchronized": TokSynchronized,
	"boolean":      TokBooleanKw,
	"byte":         TokByteKw,
	"int":          TokIntKw,
	"long":         TokLongKw,
	"double":       TokDoubleKw,
	"void":         TokVoidKw,
}

var tokNames = map[TokKind]string{
	TokEOF: "EOF", TokIdent: "identifier", TokIntLit: "int literal",
	TokLongLit: "long literal", TokDoubleLit: "double literal",
	TokStringLit: "string literal",
	TokLParen:    "(", TokRParen: ")", TokLBrace: "{", TokRBrace: "}",
	TokLBracket: "[", TokRBracket: "]", TokSemi: ";", TokComma: ",",
	TokDot:    ".",
	TokAssign: "=", TokPlus: "+", TokMinus: "-", TokStar: "*",
	TokSlash: "/", TokPercent: "%", TokNot: "!",
	TokLt: "<", TokLe: "<=", TokGt: ">", TokGe: ">=",
	TokEq: "==", TokNe: "!=", TokAndAnd: "&&", TokOrOr: "||",
	TokAnd: "&", TokOr: "|", TokCaret: "^", TokShl: "<<", TokShr: ">>",
	TokClass: "class", TokInterface: "interface", TokExtends: "extends",
	TokImplements: "implements", TokStatic: "static", TokIf: "if",
	TokElse: "else", TokWhile: "while", TokFor: "for", TokReturn: "return",
	TokBreak: "break", TokContinue: "continue", TokNew: "new",
	TokThis: "this", TokNull: "null", TokTrue: "true", TokFalse: "false",
	TokInstanceof: "instanceof", TokSynchronized: "synchronized",
	TokBooleanKw: "boolean", TokByteKw: "byte", TokIntKw: "int",
	TokLongKw: "long", TokDoubleKw: "double", TokVoidKw: "void",
}

func (k TokKind) String() string {
	if s, ok := tokNames[k]; ok {
		return s
	}
	return fmt.Sprintf("token(%d)", int(k))
}

// Pos is a source position.
type Pos struct {
	File string
	Line int32
	Col  int32
}

func (p Pos) String() string {
	if p.File == "" {
		return fmt.Sprintf("%d:%d", p.Line, p.Col)
	}
	return fmt.Sprintf("%s:%d:%d", p.File, p.Line, p.Col)
}

// Token is a lexical token with its literal text and position. The file
// is not repeated in every token: the parser, which is handed it, makes
// the token's Pos (Parser.posOf).
type Token struct {
	Kind      TokKind
	Text      string
	Line, Col int32
}
