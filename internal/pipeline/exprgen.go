package pipeline

import (
	"reflect"
	"strconv"

	"repro/internal/ir"
	"repro/internal/plan"
)

// Hash constants, matching the mixing pipeline shown in the paper's
// Listing 1 (two crc32 steps, rotate, xor, multiply).
const (
	hashC1  = 5961697176435608501
	hashC2  = 2231409791114444147
	hashMul = 2685821657736338717
)

// hashOf emits the key-hashing sequence; hashKey is its host mirror.
func (c *Compiler) hashOf(key *ir.Instr) *ir.Instr {
	g1 := c.b.Crc32(c.b.Const(hashC1), key)
	g2 := c.b.Crc32(c.b.Const(hashC2), key)
	r := c.b.Rotr(g2, c.b.Const(32))
	x := c.b.Xor(g1, r)
	return c.b.Mul(x, c.b.Const(hashMul))
}

var planToIR = map[plan.BinOp]ir.Op{
	plan.OpAdd: ir.OpAdd,
	plan.OpSub: ir.OpSub,
	plan.OpMul: ir.OpMul,
	plan.OpDiv: ir.OpSDiv,
	plan.OpMod: ir.OpSMod,
	plan.OpEq:  ir.OpCmpEq,
	plan.OpNe:  ir.OpCmpNe,
	plan.OpLt:  ir.OpCmpLt,
	plan.OpLe:  ir.OpCmpLe,
	plan.OpGt:  ir.OpCmpGt,
	plan.OpGe:  ir.OpCmpGe,
	plan.OpAnd: ir.OpAnd,
	plan.OpOr:  ir.OpOr,
}

// evalExpr generates code for a resolved expression against the current
// row. Values are emitted at the caller's position, under the caller's
// active task — the attribution behaviour the paper's listings show.
func (c *Compiler) evalExpr(e plan.PExpr, r row) *ir.Instr {
	switch x := e.(type) {
	case *plan.PConst:
		return c.b.Const(x.Val)
	case *plan.PParam:
		if c.lay.ParamBase == 0 {
			bug("parameter $" + strconv.Itoa(x.Idx) + " but layout has no parameter region")
		}
		return c.b.InvariantLoad(64, c.b.Const(c.lay.ParamBase+int64(x.Idx)*8))
	case *plan.PCol:
		if x.Pos < 0 || x.Pos >= len(r.cols) {
			bug("column position " + strconv.Itoa(x.Pos) +
				" out of row width " + strconv.Itoa(len(r.cols)))
		}
		return r.cols[x.Pos]()
	case *plan.PBin:
		l := c.evalExpr(x.L, r)
		rv := c.evalExpr(x.R, r)
		op, ok := planToIR[x.Op]
		if !ok {
			bug("no IR op for " + x.Op.String())
		}
		return c.b.Bin(op, l, rv)
	}
	bug("cannot evaluate " + reflect.TypeOf(e).String())
	return nil
}

// evalStateArgs evaluates the input of every state slot that has one
// (nil for the count). The paper's Listing 1 evaluates aggregation inputs
// — including the expensive division chain — before the group lookup; we
// keep that order.
func (c *Compiler) evalStateArgs(st []StateSlot, r row) []*ir.Instr {
	vals := make([]*ir.Instr, len(st))
	for k, s := range st {
		if s.Arg != nil {
			vals[k] = c.evalExpr(s.Arg, r)
		}
	}
	return vals
}

// genAggUpdate updates every state slot once, in place, for an existing
// group.
func (c *Compiler) genAggUpdate(entry *ir.Instr, st []StateSlot, vals []*ir.Instr) {
	for k, s := range st {
		addr := c.b.Add(entry, c.b.Const(s.Off))
		switch s.Fn {
		case plan.AggSum:
			cur := c.b.Load(64, addr)
			c.b.Store(64, addr, c.b.Add(cur, vals[k]))
		case plan.AggCount:
			cur := c.b.Load(64, addr)
			c.b.Store(64, addr, c.b.Add(cur, c.b.Const(1)))
		case plan.AggMin:
			c.genMinMax(addr, vals[k], ir.OpCmpLt)
		case plan.AggMax:
			c.genMinMax(addr, vals[k], ir.OpCmpGt)
		}
	}
}

// genMinMax stores val into addr when val <op> current.
func (c *Compiler) genMinMax(addr, val *ir.Instr, cmp ir.Op) {
	cur := c.b.Load(64, addr)
	better := c.b.Bin(cmp, val, cur)
	doStore := c.b.NewBlock("aggStore")
	skip := c.b.NewBlock("aggSkip")
	c.b.CondBr(better, doStore, skip)
	c.b.SetBlock(doStore)
	c.b.Store(64, addr, val)
	c.b.Br(skip)
	c.b.SetBlock(skip)
}

// genAggInitFirst initializes the state slots from the group's first row.
func (c *Compiler) genAggInitFirst(entry *ir.Instr, st []StateSlot, vals []*ir.Instr) {
	for k, s := range st {
		addr := c.b.Add(entry, c.b.Const(s.Off))
		v := vals[k]
		if s.Fn == plan.AggCount {
			v = c.b.Const(1)
		}
		c.b.Store(64, addr, v)
	}
}

// genAggInitZero initializes the state slots of a group join's build
// entries (no probe row seen yet): the match count and sums at zero.
func (c *Compiler) genAggInitZero(entry *ir.Instr, st []StateSlot) {
	for _, s := range st {
		v := int64(0)
		switch s.Fn {
		case plan.AggMin:
			v = minInit
		case plan.AggMax:
			v = maxInit
		}
		c.b.Store(64, c.b.Add(entry, c.b.Const(s.Off)), c.b.Const(v))
	}
}
