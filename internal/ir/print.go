package ir

import (
	"strconv"
	"strings"
	"unicode/utf8"
)

// Annotator supplies the per-line decorations the profiler attaches to IR
// listings (sample percentages and owning operators, Fig. 6b). Each method
// appends its text to dst and returns the extended slice; appending nothing
// means no decoration. A nil Annotator prints a plain listing.
type Annotator interface {
	// AppendPrefix appends the text printed before the instruction (e.g. "32.1%").
	AppendPrefix(dst []byte, in *Instr) []byte
	// AppendSuffix appends the text printed after the instruction (e.g. "hash join").
	AppendSuffix(dst []byte, in *Instr) []byte
	// AppendBlockHeader appends extra text for a block label line
	// (e.g. "(tablescan 2.4% hash join 45.7%)").
	AppendBlockHeader(dst []byte, b *Block) []byte
}

// Column widths of an annotated line, counted in runes: the prefix is
// right-aligned in the first, the instruction left-aligned in the second
// when a suffix follows it.
const prefixWidth, instrWidth = 8, 60

// AppendTo appends the function's listing to dst: a header line, then each
// block's label line and one line per instruction,
//
//	"  " prefix(right-aligned, 8) " " instr(left-aligned, 60) " " suffix
//
// where an empty suffix drops the instruction's padding and an empty prefix
// as well drops the prefix column.
func (f *Func) AppendTo(dst []byte, a Annotator) []byte {
	dst = append(append(dst, "func "...), f.Name...)
	dst = append(strconv.AppendInt(append(dst, '('), int64(f.NumParams), 10), " args):\n"...)
	for _, b := range f.Blocks {
		dst = append(append(dst, b.Name...), ": "...)
		n := len(dst)
		if a != nil {
			dst = a.AppendBlockHeader(dst, b)
		}
		if len(dst) == n { // no header: no space after the colon
			dst = dst[:n-1]
		}
		dst = append(dst, '\n')
		for _, in := range b.Instrs {
			dst = appendLine(dst, in, a)
		}
	}
	return dst
}

// appendLine appends one instruction line. Prefix, instruction and suffix
// are appended in order, then the padding the columns need is inserted.
func appendLine(dst []byte, in *Instr, a Annotator) []byte {
	dst = append(dst, "  "...)
	ps := len(dst)
	if a != nil {
		dst = a.AppendPrefix(dst, in)
	}
	pe := len(dst)
	dst = appendInstr(append(dst, ' '), in)
	if in.Comment != "" {
		dst = append(append(dst, " ; "...), in.Comment...)
	}
	ie := len(dst)
	if a != nil {
		dst = a.AppendSuffix(append(dst, ' '), in)
	}
	switch {
	case len(dst) > ie+1: // a suffix: pad both columns
		dst = insertSpaces(dst, ie, instrWidth-utf8.RuneCount(dst[pe+1:ie]))
		dst = insertSpaces(dst, ps, prefixWidth-utf8.RuneCount(dst[ps:pe]))
	case pe > ps: // a prefix only
		dst = insertSpaces(dst[:ie], ps, prefixWidth-utf8.RuneCount(dst[ps:pe]))
	default: // neither: drop the prefix column's separator
		dst = append(dst[:ps], dst[ps+1:ie]...)
	}
	return append(dst, '\n')
}

// blanks is the widest padding a column needs.
var blanks = strings.Repeat(" ", instrWidth)

// insertSpaces inserts n spaces (none if n <= 0, n <= instrWidth) at dst[at].
func insertSpaces(dst []byte, at, n int) []byte {
	if n <= 0 {
		return dst
	}
	dst = append(dst, blanks[:n]...)
	copy(dst[at+n:], dst[at:len(dst)-n])
	copy(dst[at:], blanks[:n])
	return dst
}

// Print renders a function as text.
func (f *Func) Print(a Annotator) string { return string(f.AppendTo(nil, a)) }

// Print renders the whole module, each function followed by a blank line.
func (m *Module) Print(a Annotator) string {
	var dst []byte
	for _, f := range m.Funcs {
		dst = append(f.AppendTo(dst, a), '\n')
	}
	return string(dst)
}

// FormatInstr renders a single instruction (exported for reports).
func FormatInstr(in *Instr) string { return string(appendInstr(nil, in)) }

func appendRef(dst []byte, in *Instr) []byte {
	return strconv.AppendInt(append(dst, '%'), int64(in.ID), 10)
}

// appendDef appends "%id = op", the head of every value-producing line.
func appendDef(dst []byte, in *Instr) []byte {
	return append(append(appendRef(dst, in), " = "...), in.Op.String()...)
}

// appendArgs appends the operands, separated by ", ".
func appendArgs(dst []byte, in *Instr) []byte {
	for i, a := range in.Args {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = appendRef(dst, a)
	}
	return dst
}

func appendLabel(dst []byte, b *Block) []byte {
	return append(append(dst, " %"...), b.Name...)
}

// appendInstr appends the instruction's text, without comment.
func appendInstr(dst []byte, in *Instr) []byte {
	switch in.Op {
	case OpConst:
		return strconv.AppendInt(append(appendDef(dst, in), " i64 "...), in.Imm, 10)
	case OpParam:
		return strconv.AppendInt(append(appendDef(dst, in), ' '), in.Imm, 10)
	case OpPhi:
		dst = appendDef(dst, in)
		for i, a := range in.Args {
			dst = appendRef(append(dst, " ["...), a)
			name := "?"
			if i < len(in.Block.Preds) {
				name = in.Block.Preds[i].Name
			}
			dst = append(append(append(dst, ", %"...), name...), ']')
		}
		if len(in.Args) == 0 {
			dst = append(dst, ' ')
		}
		return dst
	case OpBr:
		return appendLabel(append(dst, "br"...), in.Targets[0])
	case OpCondBr:
		dst = appendRef(append(dst, "condbr "...), in.Args[0])
		return appendLabel(appendLabel(dst, in.Targets[0]), in.Targets[1])
	case OpRet:
		if len(in.Args) == 0 {
			return append(dst, "ret"...)
		}
		return appendRef(append(dst, "ret "...), in.Args[0])
	case OpCall:
		if in.Type != Void {
			dst = append(appendRef(dst, in), " = "...)
		}
		dst = append(append(append(dst, "call @"...), in.Callee...), '(')
		return append(appendArgs(dst, in), ')')
	case OpStore8, OpStore32, OpStore64:
		dst = appendRef(append(append(dst, in.Op.String()...), ' '), in.Args[0])
		return appendRef(append(dst, ", "...), in.Args[1])
	case OpSetTag:
		return appendRef(append(dst, "settag "...), in.Args[0])
	case OpGetTag:
		return appendDef(dst, in)
	case OpHalt:
		return append(dst, "halt"...)
	case OpTrap:
		return strconv.AppendInt(append(dst, "trap "...), in.Imm, 10)
	default:
		dst = append(append(append(appendDef(dst, in), ' '), in.Type.String()...), ' ')
		return appendArgs(dst, in)
	}
}
