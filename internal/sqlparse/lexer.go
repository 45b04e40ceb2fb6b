// Package sqlparse is the SQL frontend: a lexer and recursive-descent
// parser for the engine's supported subset —
//
//	SELECT expr [AS name], ...
//	FROM table [alias], ...
//	[WHERE conjunction of predicates and equi-join conditions]
//	[GROUP BY expr]
//	[ORDER BY expr [ASC|DESC], ...]
//	[LIMIT n]
//
// with integer arithmetic, string/date literals, and the aggregates
// sum/count/avg/min/max. The parser produces a plan.Query for the
// optimizer.
package sqlparse

import (
	"fmt"
	"strings"
	"unicode"
)

type tokKind uint8

const (
	tkEOF tokKind = iota
	tkIdent
	tkNumber
	tkString
	tkSymbol  // punctuation and operators
	tkKeyword // recognized keyword (normalized upper-case)
	tkParam   // bound-parameter placeholder $N (text is the index digits)
)

type token struct {
	kind tokKind
	text string
	pos  int
}

var keywords = []string{
	"SELECT", "FROM", "WHERE", "GROUP", "BY", "ORDER", "LIMIT", "AND",
	"OR", "AS", "ASC", "DESC", "NOT", "BETWEEN", "IN",
}

type lexer struct {
	src  string
	pos  int
	toks []token
}

func lex(src string) ([]token, error) {
	l := &lexer{src: src, toks: make([]token, 0, len(src)/4+4)}
	for {
		l.skipSpace()
		if l.pos >= len(l.src) {
			l.toks = append(l.toks, token{kind: tkEOF, pos: l.pos})
			return l.toks, nil
		}
		start := l.pos
		c := l.src[l.pos]
		switch {
		case isIdentStart(c):
			l.lexIdent(start)
		case c >= '0' && c <= '9':
			l.lexNumber(start)
		case c == '\'':
			if err := l.lexString(start); err != nil {
				return nil, err
			}
		case c == '$':
			if err := l.lexParam(start); err != nil {
				return nil, err
			}
		default:
			if err := l.lexSymbol(start); err != nil {
				return nil, err
			}
		}
	}
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-' {
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
			continue
		}
		if !unicode.IsSpace(rune(c)) {
			return
		}
		l.pos++
	}
}

// isIdentStart admits ASCII letters only: the lexer walks bytes, and a
// byte above 0x7f is not a rune — folding one to lower case would print
// a canon that no longer lexes.
func isIdentStart(c byte) bool {
	return c == '_' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z'
}

func (l *lexer) lexIdent(start int) {
	for l.pos < len(l.src) && (isIdentStart(l.src[l.pos]) || l.src[l.pos] >= '0' && l.src[l.pos] <= '9') {
		l.pos++
	}
	text := l.src[start:l.pos]
	for _, kw := range keywords { // no allocation: every warm prepare lexes
		if strings.EqualFold(kw, text) {
			l.toks = append(l.toks, token{kind: tkKeyword, text: kw, pos: start})
			return
		}
	}
	l.toks = append(l.toks, token{kind: tkIdent, text: text, pos: start})
}

func (l *lexer) lexNumber(start int) {
	for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
		l.pos++
	}
	l.toks = append(l.toks, token{kind: tkNumber, text: l.src[start:l.pos], pos: start})
}

func (l *lexer) lexString(start int) error {
	l.pos++ // opening quote
	var sb strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\'' {
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				sb.WriteByte('\'')
				l.pos += 2
				continue
			}
			l.pos++
			l.toks = append(l.toks, token{kind: tkString, text: sb.String(), pos: start})
			return nil
		}
		sb.WriteByte(c)
		l.pos++
	}
	return fmt.Errorf("sql: unterminated string literal at %d", start)
}

// lexParam lexes a $N bound-parameter placeholder, as produced by query
// normalization (see fingerprint.go).
func (l *lexer) lexParam(start int) error {
	l.pos++ // '$'
	ds := l.pos
	for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
		l.pos++
	}
	if l.pos == ds {
		return fmt.Errorf("sql: '$' without parameter index at %d", start)
	}
	l.toks = append(l.toks, token{kind: tkParam, text: l.src[ds:l.pos], pos: start})
	return nil
}

var twoCharSymbols = map[string]bool{"<>": true, "<=": true, ">=": true, "!=": true}

func (l *lexer) lexSymbol(start int) error {
	if l.pos+1 < len(l.src) && twoCharSymbols[l.src[l.pos:l.pos+2]] {
		l.toks = append(l.toks, token{kind: tkSymbol, text: l.src[l.pos : l.pos+2], pos: start})
		l.pos += 2
		return nil
	}
	switch c := l.src[l.pos]; c {
	case '(', ')', ',', '.', '*', '+', '-', '/', '%', '=', '<', '>', ';':
		l.toks = append(l.toks, token{kind: tkSymbol, text: l.src[l.pos : l.pos+1], pos: start})
		l.pos++
		return nil
	default:
		return fmt.Errorf("sql: unexpected character %q at %d", c, start)
	}
}
