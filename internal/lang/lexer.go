package lang

import (
	"fmt"
	"strconv"
	"strings"
)

// Lex tokenizes tcf-e source. Comments: // to end of line and /* ... */.
func Lex(src string) ([]Token, error) {
	l := &lexer{src: src, line: 1, col: 1}
	// Source runs at 0.2-0.65 tokens per byte (inline initializers are the
	// densest), so half the length avoids most regrowth of a large slice.
	toks := make([]Token, 0, len(src)/2+1)
	for {
		tok, err := l.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, tok)
		if tok.Kind == TokEOF {
			return toks, nil
		}
	}
}

type lexer struct {
	src       string
	off       int
	line, col int
}

// Error is a positioned lex/parse diagnostic. The rendered form is
// "lang: line:col: message" so existing substring matches keep working;
// tooling (tcfvet) unwraps it with errors.As to recover the position.
type Error struct {
	Pos Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("lang: %s: %s", e.Pos, e.Msg) }

func posErrf(pos Pos, format string, args ...any) error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) errf(format string, args ...any) error {
	return posErrf(Pos{Line: l.line, Col: l.col}, format, args...)
}

func (l *lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *lexer) peek2() byte {
	if l.off+1 >= len(l.src) {
		return 0
	}
	return l.src[l.off+1]
}

func (l *lexer) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *lexer) skipSpaceAndComments() error {
	for l.off < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/' && l.peek2() == '/':
			for l.off < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case c == '/' && l.peek2() == '*':
			start := Pos{l.line, l.col}
			l.advance()
			l.advance()
			closed := false
			for l.off < len(l.src) {
				if l.peek() == '*' && l.peek2() == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				return posErrf(start, "unterminated block comment")
			}
		default:
			return nil
		}
	}
	return nil
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func (l *lexer) next() (Token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	pos := Pos{l.line, l.col}
	if l.off >= len(l.src) {
		return Token{Kind: TokEOF, Pos: pos}, nil
	}
	c := l.peek()
	switch {
	case isIdentStart(c):
		start := l.off
		for l.off < len(l.src) && (isIdentStart(l.peek()) || isDigit(l.peek())) {
			l.advance()
		}
		word := l.src[start:l.off]
		if kw, ok := keywords[word]; ok {
			return Token{Kind: kw, Pos: pos, Text: word}, nil
		}
		return Token{Kind: TokIdent, Pos: pos, Text: word}, nil
	case isDigit(c):
		start := l.off
		for l.off < len(l.src) && (isDigit(l.peek()) || l.peek() == 'x' || l.peek() == 'X' ||
			(l.peek() >= 'a' && l.peek() <= 'f') || (l.peek() >= 'A' && l.peek() <= 'F')) {
			l.advance()
		}
		text := l.src[start:l.off]
		v, err := strconv.ParseInt(text, 0, 64)
		if err != nil {
			return Token{}, posErrf(pos, "bad integer literal %q", text)
		}
		return Token{Kind: TokInt, Pos: pos, Text: text, Int: v}, nil
	case c == '"':
		l.advance()
		var b strings.Builder
		for {
			if l.off >= len(l.src) {
				return Token{}, posErrf(pos, "unterminated string")
			}
			ch := l.advance()
			if ch == '"' {
				break
			}
			if ch == '\\' {
				if l.off >= len(l.src) {
					return Token{}, posErrf(pos, "unterminated escape")
				}
				esc := l.advance()
				switch esc {
				case 'n':
					b.WriteByte('\n')
				case 't':
					b.WriteByte('\t')
				case '\\', '"':
					b.WriteByte(esc)
				default:
					return Token{}, posErrf(pos, "unknown escape \\%c", esc)
				}
				continue
			}
			b.WriteByte(ch)
		}
		return Token{Kind: TokString, Pos: pos, Str: b.String()}, nil
	}
	// Operators and punctuation.
	two := func(kind TokKind) (Token, error) {
		l.advance()
		l.advance()
		return Token{Kind: kind, Pos: pos}, nil
	}
	three := func(kind TokKind) (Token, error) {
		l.advance()
		l.advance()
		l.advance()
		return Token{Kind: kind, Pos: pos}, nil
	}
	one := func(kind TokKind) (Token, error) {
		l.advance()
		return Token{Kind: kind, Pos: pos}, nil
	}
	d := l.peek2()
	switch c {
	case '(':
		return one(TokLParen)
	case ')':
		return one(TokRParen)
	case '{':
		return one(TokLBrace)
	case '}':
		return one(TokRBrace)
	case '[':
		return one(TokLBracket)
	case ']':
		return one(TokRBracket)
	case ';':
		return one(TokSemi)
	case ',':
		return one(TokComma)
	case ':':
		return one(TokColon)
	case '#':
		return one(TokHash)
	case '@':
		return one(TokAt)
	case '~':
		return one(TokTilde)
	case '+':
		if d == '=' {
			return two(TokPlusAssign)
		}
		return one(TokPlus)
	case '-':
		if d == '=' {
			return two(TokMinusAssign)
		}
		return one(TokMinus)
	case '*':
		if d == '=' {
			return two(TokStarAssign)
		}
		return one(TokStar)
	case '/':
		if d == '=' {
			return two(TokSlashAssign)
		}
		return one(TokSlash)
	case '%':
		if d == '=' {
			return two(TokPercentAssign)
		}
		return one(TokPercent)
	case '&':
		if d == '&' {
			return two(TokAndAnd)
		}
		if d == '=' {
			return two(TokAmpAssign)
		}
		return one(TokAmp)
	case '|':
		if d == '|' {
			return two(TokOrOr)
		}
		if d == '=' {
			return two(TokPipeAssign)
		}
		return one(TokPipe)
	case '^':
		if d == '=' {
			return two(TokCaretAssign)
		}
		return one(TokCaret)
	case '!':
		if d == '=' {
			return two(TokNe)
		}
		return one(TokBang)
	case '=':
		if d == '=' {
			return two(TokEq)
		}
		return one(TokAssign)
	case '<':
		if d == '<' {
			if l.off+2 < len(l.src) && l.src[l.off+2] == '=' {
				return three(TokShlAssign)
			}
			return two(TokShl)
		}
		if d == '=' {
			return two(TokLe)
		}
		return one(TokLt)
	case '>':
		if d == '>' {
			if l.off+2 < len(l.src) && l.src[l.off+2] == '=' {
				return three(TokShrAssign)
			}
			return two(TokShr)
		}
		if d == '=' {
			return two(TokGe)
		}
		return one(TokGt)
	}
	return Token{}, l.errf("unexpected character %q", string(c))
}
