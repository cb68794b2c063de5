package sql

// A single-pass Pratt parser over the streaming lexer. The parser keeps
// exactly two tokens of lookahead (cur/peek) — enough to distinguish
// `NOT IN`/`NOT LIKE`/`NOT BETWEEN` postfixes — and allocates every AST
// node and slice from the statement's arena, so a warm parse (arena
// reused) touches the heap only for oversized lists.

import (
	"fmt"
	"strconv"
	"sync"
)

// Statement is the handle returned by Parse: the parsed AST plus the
// arena that owns every node in it.
type Statement struct {
	// AST is the parsed statement tree.
	AST Stmt
	// NumParams is the number of `?`/`$N` placeholder slots (the
	// highest ordinal seen).
	NumParams int

	arena  *Arena
	pooled bool
}

// Release returns the statement's arena to the shared pool. The AST
// (and every string borrowed from the input) is invalid afterwards.
// Callers that cache the AST — the plan cache does — simply never call
// Release; the arena then lives exactly as long as the AST.
func (s *Statement) Release() {
	a := s.arena
	if a == nil {
		return
	}
	s.arena = nil
	s.AST = nil
	if s.pooled {
		arenaPool.Put(a)
	}
}

var arenaPool = sync.Pool{New: func() any { return NewArena() }}

// ParseOption configures Parse. It is a value (not a closure) so that
// passing options stays allocation-free on the warm path.
type ParseOption struct{ arena *Arena }

// WithArena parses into a caller-owned arena instead of the shared
// pool. Each parse resets the arena, invalidating the previous AST;
// Release on the resulting Statement is a no-op.
func WithArena(a *Arena) ParseOption {
	return ParseOption{arena: a}
}

// Parse parses one SQL statement. It is the single entry point of the
// front end; errors are *ParseError values carrying byte offset,
// line/column and the offending token.
func Parse(input string, opts ...ParseOption) (*Statement, error) {
	var cfg ParseOption
	for _, o := range opts {
		if o.arena != nil {
			cfg.arena = o.arena
		}
	}
	a, pooled := cfg.arena, false
	if a == nil {
		a = arenaPool.Get().(*Arena)
		pooled = true
	}
	a.reset()
	// Lex the whole statement up front into the arena's reusable token
	// slice: tokenize writes each token in place (no append, no copy)
	// and the parser then advances through a stable array with two
	// pointer moves instead of re-entering the lexer per token.
	toks, lexErr := tokenize(input, a.toks[:cap(a.toks)])
	a.toks = toks
	if lexErr != nil {
		if pooled {
			arenaPool.Put(a)
		}
		return nil, lexErr
	}
	p := parser{a: a, toks: toks, src: input}
	p.peek = &toks[0]
	p.k = 1
	err := p.advance() // prime cur
	var stmt Stmt
	if err == nil {
		stmt, err = p.statement()
	}
	if err == nil && p.curSym(symSemi) {
		err = p.advance()
	}
	if err == nil && p.cur.kind != tokEOF {
		err = p.errf(p.cur, "trailing input")
	}
	if err != nil {
		if pooled {
			arenaPool.Put(a)
		}
		return nil, err
	}
	st := &a.stmt
	*st = Statement{AST: stmt, NumParams: p.params, arena: a, pooled: pooled}
	return st, nil
}

// ParseWithParams is the pre-arena entry point.
//
// Deprecated: use Parse; the Statement carries NumParams.
func ParseWithParams(input string) (Stmt, int, error) {
	st, err := Parse(input)
	if err != nil {
		return nil, 0, err
	}
	// The AST keeps its arena alive; intentionally not released.
	return st.AST, st.NumParams, nil
}

type parser struct {
	src  string // statement text; tokens hold offsets into it
	toks []token
	k    int // index of the token after peek
	cur  *token
	// peek is the second lookahead token.
	peek   *token
	a      *Arena
	params int
}

// advance moves the two-token window. The token array ends with an EOF
// token, so once k runs off the end peek simply stays parked on it.
// The error return is vestigial (lexing happened up front) but keeps
// the grammar productions' `if err := p.advance()` shape.
func (p *parser) advance() error {
	p.cur = p.peek
	if p.k < len(p.toks) {
		p.peek = &p.toks[p.k]
		p.k++
	}
	return nil
}

func (p *parser) curSym(s symID) bool {
	return p.cur.kind == tokSymbol && p.cur.sym == s
}

func nearText(src string, t *token) string {
	switch t.kind {
	case tokEOF:
		return ""
	case tokString:
		return "'" + rawText(src, t) + "'"
	case tokParam:
		if t.end == t.pos+1 {
			return "?"
		}
		return "$" + rawText(src, t)
	default:
		return rawText(src, t)
	}
}

func (p *parser) errf(t *token, format string, args ...any) error {
	return newParseError(p.src, int(t.pos), nearText(p.src, t), fmt.Sprintf(format, args...))
}

// text returns t's raw text (see rawText).
func (p *parser) text(t *token) string { return rawText(p.src, t) }

func (p *parser) expectSym(s symID, ctx string) error {
	if !p.curSym(s) {
		return p.errf(p.cur, "expected %q in %s", symNames[s], ctx)
	}
	return p.advance()
}

func (p *parser) expectKw(k kwID, ctx string) error {
	if p.cur.kw != k {
		return p.errf(p.cur, "expected %s in %s", kwNames[k], ctx)
	}
	return p.advance()
}

// ident consumes an identifier and returns its lower-cased text.
func (p *parser) ident(what string) (string, error) {
	if p.cur.kind != tokIdent {
		return "", p.errf(p.cur, "expected %s", what)
	}
	name := identTok(p.src, p.cur)
	return name, p.advance()
}

func (p *parser) statement() (Stmt, error) {
	switch p.cur.kw {
	case kwSELECT:
		return p.queryStmt()
	case kwCREATE:
		return p.createStmt()
	case kwINSERT:
		return p.insertStmt()
	case kwUPDATE:
		return p.updateStmt()
	case kwDELETE:
		return p.deleteStmt()
	case kwBEGIN, kwCOMMIT, kwROLLBACK:
		kind := kwNames[p.cur.kw]
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &TxStmt{Kind: kind}, nil
	}
	return nil, p.errf(p.cur, "expected statement")
}

// queryStmt parses SELECT ... [UNION [ALL]|EXCEPT|INTERSECT SELECT ...]*
// [ORDER BY ...] [LIMIT n]. Set operations fold left-associatively and
// ORDER BY/LIMIT bind to the whole chain.
func (p *parser) queryStmt() (Stmt, error) {
	core, err := p.selectCore()
	if err != nil {
		return nil, err
	}
	var stmt Stmt = core
	for {
		var op string
		switch p.cur.kw {
		case kwUNION:
			if err := p.advance(); err != nil {
				return nil, err
			}
			op = "union"
			if p.cur.kw == kwALL {
				if err := p.advance(); err != nil {
					return nil, err
				}
				op = "union all"
			}
		case kwEXCEPT:
			if err := p.advance(); err != nil {
				return nil, err
			}
			op = "except"
		case kwINTERSECT:
			if err := p.advance(); err != nil {
				return nil, err
			}
			op = "intersect"
		}
		if op == "" {
			break
		}
		right, err := p.selectCore()
		if err != nil {
			return nil, err
		}
		so := p.a.setops.get()
		so.Op, so.Left, so.Right, so.Limit = op, stmt, right, -1
		stmt = so
	}
	order, limit, err := p.orderLimit()
	if err != nil {
		return nil, err
	}
	switch t := stmt.(type) {
	case *SelectStmt:
		t.OrderBy, t.Limit = order, limit
	case *SetOpStmt:
		t.OrderBy, t.Limit = order, limit
	}
	return stmt, nil
}

// selectCore parses one SELECT block through HAVING — no ORDER BY or
// LIMIT, so set-op chains and subqueries can reuse it.
func (p *parser) selectCore() (*SelectStmt, error) {
	if err := p.expectKw(kwSELECT, "query"); err != nil {
		return nil, err
	}
	sel := p.a.selects.get()
	sel.Limit = -1
	mi := p.a.sItems.mark()
	for {
		var it SelectItem
		if p.curSym(symStar) {
			it.Star = true
			if err := p.advance(); err != nil {
				return nil, err
			}
		} else {
			e, err := p.expr(0)
			if err != nil {
				return nil, err
			}
			it.Expr = e
			if p.cur.kw == kwAS {
				if err := p.advance(); err != nil {
					return nil, err
				}
				alias, err := p.ident("alias after AS")
				if err != nil {
					return nil, err
				}
				it.Alias = alias
			} else if p.cur.kind == tokIdent {
				it.Alias = identTok(p.src, p.cur)
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
		}
		p.a.sItems.push(it)
		if !p.curSym(symComma) {
			break
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	sel.Items = takeSlice(&p.a.sItems, &p.a.itemSlices, mi)
	if err := p.expectKw(kwFROM, "select"); err != nil {
		return nil, err
	}
	tr, err := p.tableRef()
	if err != nil {
		return nil, err
	}
	from := p.a.tableSlices.alloc(1)
	from[0] = tr
	sel.From = from
	mj := p.a.sJoins.mark()
	for {
		kind, ok, err := p.joinKind()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		jt, err := p.tableRef()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw(kwON, "join"); err != nil {
			return nil, err
		}
		mo := p.a.sOneqs.mark()
		for {
			l, err := p.expr(bpAdd)
			if err != nil {
				return nil, err
			}
			if err := p.expectSym(symEq, "join condition"); err != nil {
				return nil, err
			}
			r, err := p.expr(bpAdd)
			if err != nil {
				return nil, err
			}
			p.a.sOneqs.push(OnEq{L: l, R: r})
			if p.cur.kw != kwAND {
				break
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
		p.a.sJoins.push(JoinClause{
			Kind:  kind,
			Table: jt,
			On:    takeSlice(&p.a.sOneqs, &p.a.oneqSlices, mo),
		})
	}
	sel.Joins = takeSlice(&p.a.sJoins, &p.a.joinSlices, mj)
	if p.cur.kw == kwWHERE {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if sel.Where, err = p.expr(0); err != nil {
			return nil, err
		}
	}
	if p.cur.kw == kwGROUP {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectKw(kwBY, "GROUP BY"); err != nil {
			return nil, err
		}
		mg := p.a.sExprs.mark()
		for {
			e, err := p.expr(0)
			if err != nil {
				return nil, err
			}
			p.a.sExprs.push(e)
			if !p.curSym(symComma) {
				break
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
		sel.GroupBy = takeSlice(&p.a.sExprs, &p.a.exprSlices, mg)
	}
	if p.cur.kw == kwHAVING {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if sel.Having, err = p.expr(0); err != nil {
			return nil, err
		}
	}
	return sel, nil
}

func (p *parser) tableRef() (TableRef, error) {
	var tr TableRef
	name, err := p.ident("table name")
	if err != nil {
		return tr, err
	}
	tr.Table = name
	// The alias defaults to the table name, so scope resolution treats
	// `t.col` and an unaliased FROM uniformly.
	tr.Alias = name
	if p.cur.kind == tokIdent {
		tr.Alias = identTok(p.src, p.cur)
		if err := p.advance(); err != nil {
			return tr, err
		}
	}
	return tr, nil
}

// joinKind consumes a join introducer, returning its planner kind.
func (p *parser) joinKind() (string, bool, error) {
	switch p.cur.kw {
	case kwJOIN:
		return "inner", true, p.advance()
	case kwINNER:
		if err := p.advance(); err != nil {
			return "", false, err
		}
		return "inner", true, p.expectKw(kwJOIN, "join")
	case kwLEFT:
		if err := p.advance(); err != nil {
			return "", false, err
		}
		kind := "left"
		switch p.cur.kw {
		case kwOUTER:
			if err := p.advance(); err != nil {
				return "", false, err
			}
		case kwSEMI:
			kind = "semi"
			if err := p.advance(); err != nil {
				return "", false, err
			}
		case kwANTI:
			kind = "anti"
			if err := p.advance(); err != nil {
				return "", false, err
			}
		}
		return kind, true, p.expectKw(kwJOIN, "join")
	case kwSEMI:
		if err := p.advance(); err != nil {
			return "", false, err
		}
		return "semi", true, p.expectKw(kwJOIN, "join")
	case kwANTI:
		if err := p.advance(); err != nil {
			return "", false, err
		}
		return "anti", true, p.expectKw(kwJOIN, "join")
	}
	return "", false, nil
}

func (p *parser) orderLimit() ([]OrderItem, int64, error) {
	var items []OrderItem
	limit := int64(-1)
	if p.cur.kw == kwORDER {
		if err := p.advance(); err != nil {
			return nil, 0, err
		}
		if err := p.expectKw(kwBY, "ORDER BY"); err != nil {
			return nil, 0, err
		}
		mo := p.a.sOrders.mark()
		for {
			e, err := p.expr(0)
			if err != nil {
				return nil, 0, err
			}
			desc := false
			switch p.cur.kw {
			case kwDESC:
				desc = true
				if err := p.advance(); err != nil {
					return nil, 0, err
				}
			case kwASC:
				if err := p.advance(); err != nil {
					return nil, 0, err
				}
			}
			p.a.sOrders.push(OrderItem{Expr: e, Desc: desc})
			if !p.curSym(symComma) {
				break
			}
			if err := p.advance(); err != nil {
				return nil, 0, err
			}
		}
		items = takeSlice(&p.a.sOrders, &p.a.orderSlices, mo)
	}
	if p.cur.kw == kwLIMIT {
		if err := p.advance(); err != nil {
			return nil, 0, err
		}
		if p.cur.kind != tokNumber {
			return nil, 0, p.errf(p.cur, "expected integer after LIMIT")
		}
		n, err := strconv.ParseInt(p.text(p.cur), 10, 64)
		if err != nil {
			return nil, 0, p.errf(p.cur, "invalid LIMIT %q", p.text(p.cur))
		}
		limit = n
		if err := p.advance(); err != nil {
			return nil, 0, err
		}
	}
	return items, limit, nil
}

func (p *parser) createStmt() (Stmt, error) {
	if err := p.advance(); err != nil { // CREATE
		return nil, err
	}
	if err := p.expectKw(kwTABLE, "CREATE"); err != nil {
		return nil, err
	}
	table, err := p.ident("table name")
	if err != nil {
		return nil, err
	}
	if err := p.expectSym(symLParen, "CREATE TABLE"); err != nil {
		return nil, err
	}
	mc := p.a.sCols.mark()
	for {
		name, err := p.ident("column name")
		if err != nil {
			return nil, err
		}
		var typ string
		switch p.cur.kw {
		case kwBIGINT, kwINTEGER:
			typ = "BIGINT"
		case kwDOUBLE, kwFLOAT:
			typ = "DOUBLE"
		case kwVARCHAR, kwTEXT:
			typ = "VARCHAR"
		case kwBOOLEAN:
			typ = "BOOLEAN"
		case kwDATE:
			typ = "DATE"
		default:
			return nil, p.errf(p.cur, "expected column type")
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		col := CreateCol{Name: name, Type: typ}
		switch p.cur.kw {
		case kwNULL:
			col.Nullable = true
			if err := p.advance(); err != nil {
				return nil, err
			}
		case kwNOT:
			if err := p.advance(); err != nil {
				return nil, err
			}
			if err := p.expectKw(kwNULL, "column constraint"); err != nil {
				return nil, err
			}
		}
		p.a.sCols.push(col)
		if !p.curSym(symComma) {
			break
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if err := p.expectSym(symRParen, "CREATE TABLE"); err != nil {
		return nil, err
	}
	return &CreateStmt{Table: table, Cols: takeSlice(&p.a.sCols, &p.a.colSlices, mc)}, nil
}

func (p *parser) insertStmt() (Stmt, error) {
	if err := p.advance(); err != nil { // INSERT
		return nil, err
	}
	if err := p.expectKw(kwINTO, "INSERT"); err != nil {
		return nil, err
	}
	table, err := p.ident("table name")
	if err != nil {
		return nil, err
	}
	if err := p.expectKw(kwVALUES, "INSERT"); err != nil {
		return nil, err
	}
	mr := p.a.sRows.mark()
	for {
		if err := p.expectSym(symLParen, "VALUES"); err != nil {
			return nil, err
		}
		me := p.a.sExprs.mark()
		for {
			e, err := p.expr(0)
			if err != nil {
				return nil, err
			}
			p.a.sExprs.push(e)
			if !p.curSym(symComma) {
				break
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
		if err := p.expectSym(symRParen, "VALUES"); err != nil {
			return nil, err
		}
		p.a.sRows.push(takeSlice(&p.a.sExprs, &p.a.exprSlices, me))
		if !p.curSym(symComma) {
			break
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	return &InsertStmt{Table: table, Rows: takeSlice(&p.a.sRows, &p.a.rowSlices, mr)}, nil
}

func (p *parser) updateStmt() (Stmt, error) {
	if err := p.advance(); err != nil { // UPDATE
		return nil, err
	}
	table, err := p.ident("table name")
	if err != nil {
		return nil, err
	}
	if err := p.expectKw(kwSET, "UPDATE"); err != nil {
		return nil, err
	}
	ms := p.a.sStrs.mark()
	me := p.a.sExprs.mark()
	for {
		col, err := p.ident("column name")
		if err != nil {
			return nil, err
		}
		if err := p.expectSym(symEq, "SET"); err != nil {
			return nil, err
		}
		e, err := p.expr(0)
		if err != nil {
			return nil, err
		}
		p.a.sStrs.push(col)
		p.a.sExprs.push(e)
		if !p.curSym(symComma) {
			break
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	us := &UpdateStmt{
		Table:    table,
		SetExprs: takeSlice(&p.a.sExprs, &p.a.exprSlices, me),
		SetCols:  takeSlice(&p.a.sStrs, &p.a.strSlices, ms),
	}
	if p.cur.kw == kwWHERE {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if us.Where, err = p.expr(0); err != nil {
			return nil, err
		}
	}
	return us, nil
}

func (p *parser) deleteStmt() (Stmt, error) {
	if err := p.advance(); err != nil { // DELETE
		return nil, err
	}
	if err := p.expectKw(kwFROM, "DELETE"); err != nil {
		return nil, err
	}
	table, err := p.ident("table name")
	if err != nil {
		return nil, err
	}
	ds := &DeleteStmt{Table: table}
	if p.cur.kw == kwWHERE {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if ds.Where, err = p.expr(0); err != nil {
			return nil, err
		}
	}
	return ds, nil
}

// Binding powers for the Pratt loop. Predicates (comparisons, BETWEEN,
// IN, LIKE, IS) share one level whose operands bind at bpAdd.
const (
	bpOr    = 1
	bpAnd   = 2
	bpNot   = 3
	bpCmp   = 4
	bpAdd   = 5
	bpMul   = 6
	bpUnary = 7
)

func isCmpSym(s symID) bool {
	switch s {
	case symEq, symLt, symGt, symLe, symGe, symNe:
		return true
	}
	return false
}

// Infix binding-power tables: one probe decides both "is this token an
// infix operator" (nonzero) and how tightly it binds, so the Pratt
// loop's common exit — next token is a comma, keyword, paren... — is a
// single compare. A token has a nonzero kw or sym, never both, so the
// two probes combine with an OR.
var (
	kwInfixBP  [kwCount_]uint8
	symInfixBP [symCount_]uint8
)

func init() {
	kwInfixBP[kwOR] = bpOr
	kwInfixBP[kwAND] = bpAnd
	// Predicate keywords all bind at bpCmp; NOT is its postfix form
	// (NOT IN / NOT LIKE / NOT BETWEEN, resolved via peek).
	for _, k := range []kwID{kwBETWEEN, kwIN, kwLIKE, kwIS, kwNOT} {
		kwInfixBP[k] = bpCmp
	}
	for _, s := range []symID{symEq, symLt, symGt, symLe, symGe, symNe} {
		symInfixBP[s] = bpCmp
	}
	symInfixBP[symPlus] = bpAdd
	symInfixBP[symMinus] = bpAdd
	symInfixBP[symStar] = bpMul
	symInfixBP[symSlash] = bpMul
	symInfixBP[symPercent] = bpMul
}

func (p *parser) bin(op string, l, r Expr) Expr {
	b := p.a.bins.get()
	b.Op, b.L, b.R = op, l, r
	return b
}

// expr parses an expression whose operators all bind at least as
// tightly as minBP.
func (p *parser) expr(minBP int) (Expr, error) {
	var lhs Expr
	var err error
	switch {
	case p.cur.kw == kwNOT:
		if err = p.advance(); err != nil {
			return nil, err
		}
		in, err := p.expr(bpNot)
		if err != nil {
			return nil, err
		}
		ne := p.a.nots.get()
		ne.In = in
		lhs = ne
	case p.curSym(symMinus):
		if err = p.advance(); err != nil {
			return nil, err
		}
		in, err := p.expr(bpUnary)
		if err != nil {
			return nil, err
		}
		zero := p.a.nums.get()
		zero.Text = "0"
		lhs = p.bin("-", zero, in)
	default:
		if lhs, err = p.primary(); err != nil {
			return nil, err
		}
	}
	for {
		t := p.cur
		// Gate: non-operators (the common exit) and operators bound
		// out by minBP bail on one combined table probe.
		bp := int(kwInfixBP[t.kw] | symInfixBP[t.sym])
		if bp == 0 || bp < minBP {
			return lhs, nil
		}
		switch {
		case t.kw == kwOR:
			if err := p.advance(); err != nil {
				return nil, err
			}
			r, err := p.expr(bpOr + 1)
			if err != nil {
				return nil, err
			}
			lhs = p.bin("OR", lhs, r)
		case t.kw == kwAND:
			if err := p.advance(); err != nil {
				return nil, err
			}
			r, err := p.expr(bpAnd + 1)
			if err != nil {
				return nil, err
			}
			lhs = p.bin("AND", lhs, r)
		case t.kind == tokSymbol && isCmpSym(t.sym):
			op := symNames[t.sym]
			if err := p.advance(); err != nil {
				return nil, err
			}
			r, err := p.expr(bpCmp + 1)
			if err != nil {
				return nil, err
			}
			lhs = p.bin(op, lhs, r)
		case t.kind == tokSymbol && (t.sym == symPlus || t.sym == symMinus):
			op := symNames[t.sym]
			if err := p.advance(); err != nil {
				return nil, err
			}
			r, err := p.expr(bpAdd + 1)
			if err != nil {
				return nil, err
			}
			lhs = p.bin(op, lhs, r)
		case t.kind == tokSymbol && (t.sym == symStar || t.sym == symSlash || t.sym == symPercent):
			op := symNames[t.sym]
			if err := p.advance(); err != nil {
				return nil, err
			}
			r, err := p.expr(bpMul + 1)
			if err != nil {
				return nil, err
			}
			lhs = p.bin(op, lhs, r)
		case t.kw == kwBETWEEN:
			if err := p.advance(); err != nil {
				return nil, err
			}
			if lhs, err = p.betweenTail(lhs, false); err != nil {
				return nil, err
			}
		case t.kw == kwIN:
			if err := p.advance(); err != nil {
				return nil, err
			}
			if lhs, err = p.inTail(lhs, false); err != nil {
				return nil, err
			}
		case t.kw == kwLIKE:
			if err := p.advance(); err != nil {
				return nil, err
			}
			if lhs, err = p.likeTail(lhs, false); err != nil {
				return nil, err
			}
		case t.kw == kwIS:
			if err := p.advance(); err != nil {
				return nil, err
			}
			neg := false
			if p.cur.kw == kwNOT {
				neg = true
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
			if err := p.expectKw(kwNULL, "IS"); err != nil {
				return nil, err
			}
			isn := p.a.isnulls.get()
			isn.In, isn.Negate = lhs, neg
			lhs = isn
		case t.kw == kwNOT:
			// Postfix NOT IN / NOT LIKE / NOT BETWEEN — the second
			// lookahead token decides.
			var tail kwID
			switch p.peek.kw {
			case kwIN, kwLIKE, kwBETWEEN:
				tail = p.peek.kw
			default:
				return lhs, nil
			}
			if err := p.advance(); err != nil { // NOT
				return nil, err
			}
			if err := p.advance(); err != nil { // IN/LIKE/BETWEEN
				return nil, err
			}
			switch tail {
			case kwIN:
				lhs, err = p.inTail(lhs, true)
			case kwLIKE:
				lhs, err = p.likeTail(lhs, true)
			default:
				lhs, err = p.betweenTail(lhs, true)
			}
			if err != nil {
				return nil, err
			}
		default:
			return lhs, nil
		}
	}
}

// betweenTail parses `lo AND hi` after [NOT] BETWEEN.
func (p *parser) betweenTail(lhs Expr, neg bool) (Expr, error) {
	lo, err := p.expr(bpAdd)
	if err != nil {
		return nil, err
	}
	if err := p.expectKw(kwAND, "BETWEEN"); err != nil {
		return nil, err
	}
	hi, err := p.expr(bpAdd)
	if err != nil {
		return nil, err
	}
	be := p.a.betweens.get()
	be.In, be.Lo, be.Hi = lhs, lo, hi
	if !neg {
		return be, nil
	}
	ne := p.a.nots.get()
	ne.In = be
	return ne, nil
}

// inTail parses `(list)` or `(SELECT ...)` after [NOT] IN.
func (p *parser) inTail(lhs Expr, neg bool) (Expr, error) {
	if err := p.expectSym(symLParen, "IN"); err != nil {
		return nil, err
	}
	if p.cur.kw == kwSELECT {
		sel, err := p.selectCore()
		if err != nil {
			return nil, err
		}
		if err := p.expectSym(symRParen, "IN subquery"); err != nil {
			return nil, err
		}
		is := p.a.insubs.get()
		is.In, is.Sel, is.Negate = lhs, sel, neg
		return is, nil
	}
	me := p.a.sExprs.mark()
	for {
		e, err := p.expr(bpAdd)
		if err != nil {
			return nil, err
		}
		p.a.sExprs.push(e)
		if !p.curSym(symComma) {
			break
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if err := p.expectSym(symRParen, "IN list"); err != nil {
		return nil, err
	}
	ie := p.a.ins.get()
	ie.In = lhs
	ie.List = takeSlice(&p.a.sExprs, &p.a.exprSlices, me)
	if !neg {
		return ie, nil
	}
	ne := p.a.nots.get()
	ne.In = ie
	return ne, nil
}

// likeTail parses the pattern literal after [NOT] LIKE.
func (p *parser) likeTail(lhs Expr, neg bool) (Expr, error) {
	if p.cur.kind != tokString {
		return nil, p.errf(p.cur, "expected string pattern after LIKE")
	}
	le := p.a.likes.get()
	le.In, le.Pattern, le.Negate = lhs, stringTok(p.src, p.cur), neg
	return le, p.advance()
}

// Shared immutable literal nodes (the planner only reads them).
var (
	litTrue  = &BoolLit{Val: true}
	litFalse = &BoolLit{Val: false}
	litNull  = &NullLit{}
)

func (p *parser) primary() (Expr, error) {
	t := p.cur
	switch t.kind {
	case tokNumber:
		nl := p.a.nums.get()
		nl.Text = p.text(t)
		return nl, p.advance()
	case tokString:
		sl := p.a.strs.get()
		sl.Val = stringTok(p.src, t)
		return sl, p.advance()
	case tokParam:
		pe := p.a.paramsP.get()
		if t.end == t.pos+1 { // bare `?`
			p.params++
			pe.Idx = p.params
		} else {
			n, err := strconv.Atoi(p.text(t))
			if err != nil || n < 1 {
				return nil, p.errf(t, "invalid parameter ordinal $%s", p.text(t))
			}
			pe.Idx = n
			if n > p.params {
				p.params = n
			}
		}
		return pe, p.advance()
	case tokIdent:
		name := identTok(p.src, t)
		if err := p.advance(); err != nil {
			return nil, err
		}
		id := p.a.idents.get()
		if p.curSym(symDot) {
			if err := p.advance(); err != nil {
				return nil, err
			}
			col, err := p.ident("column after '.'")
			if err != nil {
				return nil, err
			}
			id.Qualifier, id.Name = name, col
		} else {
			id.Name = name
		}
		return id, nil
	case tokSymbol:
		if t.sym == symLParen {
			if err := p.advance(); err != nil {
				return nil, err
			}
			if p.cur.kw == kwSELECT {
				sel, err := p.selectCore()
				if err != nil {
					return nil, err
				}
				if err := p.expectSym(symRParen, "subquery"); err != nil {
					return nil, err
				}
				sq := p.a.subs.get()
				sq.Sel = sel
				return sq, nil
			}
			e, err := p.expr(0)
			if err != nil {
				return nil, err
			}
			return e, p.expectSym(symRParen, "expression")
		}
	case tokKeyword:
		switch t.kw {
		case kwTRUE:
			return litTrue, p.advance()
		case kwFALSE:
			return litFalse, p.advance()
		case kwNULL:
			return litNull, p.advance()
		case kwDATE:
			if err := p.advance(); err != nil {
				return nil, err
			}
			if p.cur.kind != tokString {
				return nil, p.errf(p.cur, "expected string after DATE")
			}
			dl := p.a.dates.get()
			dl.Val = stringTok(p.src, p.cur)
			return dl, p.advance()
		case kwCASE:
			if err := p.advance(); err != nil {
				return nil, err
			}
			if err := p.expectKw(kwWHEN, "CASE"); err != nil {
				return nil, err
			}
			cond, err := p.expr(0)
			if err != nil {
				return nil, err
			}
			if err := p.expectKw(kwTHEN, "CASE"); err != nil {
				return nil, err
			}
			then, err := p.expr(0)
			if err != nil {
				return nil, err
			}
			if err := p.expectKw(kwELSE, "CASE"); err != nil {
				return nil, err
			}
			els, err := p.expr(0)
			if err != nil {
				return nil, err
			}
			if err := p.expectKw(kwEND, "CASE"); err != nil {
				return nil, err
			}
			ce := p.a.cases.get()
			ce.Cond, ce.Then, ce.Else = cond, then, els
			return ce, nil
		case kwSUM, kwCOUNT, kwAVG, kwMIN, kwMAX:
			var fn string
			switch t.kw {
			case kwSUM:
				fn = "SUM"
			case kwCOUNT:
				fn = "COUNT"
			case kwAVG:
				fn = "AVG"
			case kwMIN:
				fn = "MIN"
			case kwMAX:
				fn = "MAX"
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
			if err := p.expectSym(symLParen, "aggregate"); err != nil {
				return nil, err
			}
			ac := p.a.aggsP.get()
			ac.Fn = fn
			if fn == "COUNT" && p.curSym(symStar) {
				if err := p.advance(); err != nil {
					return nil, err
				}
				return ac, p.expectSym(symRParen, "aggregate")
			}
			arg, err := p.expr(0)
			if err != nil {
				return nil, err
			}
			ac.Arg = arg
			return ac, p.expectSym(symRParen, "aggregate")
		case kwYEAR:
			if err := p.advance(); err != nil {
				return nil, err
			}
			if err := p.expectSym(symLParen, "function"); err != nil {
				return nil, err
			}
			arg, err := p.expr(0)
			if err != nil {
				return nil, err
			}
			fc := p.a.funcs.get()
			fc.Fn, fc.Arg = "YEAR", arg
			return fc, p.expectSym(symRParen, "function")
		}
	}
	return nil, p.errf(t, "unexpected token in expression")
}
