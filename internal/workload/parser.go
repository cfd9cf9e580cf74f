package workload

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode"

	"repro/internal/catalog"
)

// Parse reads a workload from SQL-ish text: semicolon-separated SELECT
// and UPDATE statements in the dialect String renders. Constants are
// normalized positions in a column's value domain, written as `:0.35`
// (plain numbers are accepted too). Aggregation is expressed by
// wrapping select items in SUM(...), COUNT(...), AVG(...), MIN(...),
// MAX(...) or AGG(...). Unqualified columns are resolved against the
// catalog and must be unambiguous. A line starting with `--` is a
// comment. An optional `WEIGHT <n>` suffix before the semicolon sets
// the statement weight. A FROM list names each table once and at most
// MaxTables tables, so every parsed query is one the optimizer can plan.
//
// Grammar (case-insensitive keywords):
//
//	select   := SELECT item {, item} FROM table {, table}
//	            [WHERE cond {AND cond}] [GROUP BY col {, col}]
//	            [ORDER BY col {, col}] [WEIGHT num]
//	update   := UPDATE table SET col = value {, col = value}
//	            [WHERE cond {AND cond}] [WEIGHT num]
//	cond     := col = col            (equi-join when both sides are columns)
//	          | col = const | col < const | col <= const
//	          | col > const | col >= const
//	          | col BETWEEN const AND const
func Parse(cat *catalog.Catalog, text string) (*Workload, error) {
	p := &parser{cat: cat, toks: lex(text)}
	w := &Workload{Name: "parsed"}
	n := 0
	for !p.eof() {
		if p.accept(";") {
			continue
		}
		st, err := p.statement(n)
		if err != nil {
			return nil, err
		}
		w.Statements = append(w.Statements, st)
		n++
		if !p.eof() && !p.accept(";") {
			return nil, p.errf("expected ';' after statement, found %q", p.peek())
		}
	}
	if n == 0 {
		return nil, fmt.Errorf("workload: no statements in input")
	}
	return w, nil
}

// lex splits the input into tokens: identifiers/keywords, numbers
// (including the :0.35 form), punctuation and operators. Comments
// (`-- ...`) are skipped.
func lex(text string) []string {
	var toks []string
	i := 0
	for i < len(text) {
		c := text[i]
		switch {
		case c == '-' && i+1 < len(text) && text[i+1] == '-':
			for i < len(text) && text[i] != '\n' {
				i++
			}
		case unicode.IsSpace(rune(c)):
			i++
		case c == ':' || c == '.' && i+1 < len(text) && isDigit(text[i+1]) || isDigit(c):
			j := i
			if text[j] == ':' {
				j++
				// Named placeholder (`:v`, as UPDATE SET values render):
				// one opaque token, so rendered updates round-trip.
				if j < len(text) && isIdent(text[j]) {
					for j < len(text) && (isIdent(text[j]) || isDigit(text[j])) {
						j++
					}
					toks = append(toks, text[i:j])
					i = j
					continue
				}
			}
			for j < len(text) && (isDigit(text[j]) || text[j] == '.') {
				j++
			}
			toks = append(toks, text[i:j])
			i = j
		case isIdent(c):
			j := i
			for j < len(text) && (isIdent(text[j]) || isDigit(text[j])) {
				j++
			}
			// Qualified names keep the dot: t.c
			if j < len(text) && text[j] == '.' && j+1 < len(text) && isIdent(text[j+1]) {
				j++
				for j < len(text) && (isIdent(text[j]) || isDigit(text[j])) {
					j++
				}
			}
			toks = append(toks, text[i:j])
			i = j
		case c == '<' || c == '>':
			if i+1 < len(text) && text[i+1] == '=' {
				toks = append(toks, text[i:i+2])
				i += 2
			} else {
				toks = append(toks, string(c))
				i++
			}
		default:
			toks = append(toks, string(c))
			i++
		}
	}
	return toks
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }
func isIdent(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

type parser struct {
	cat  *catalog.Catalog
	toks []string
	pos  int
	// tables in scope of the current statement, for resolving
	// unqualified columns.
	scope []string
}

func (p *parser) eof() bool { return p.pos >= len(p.toks) }

func (p *parser) peek() string {
	if p.eof() {
		return "<eof>"
	}
	return p.toks[p.pos]
}

func (p *parser) next() string {
	t := p.peek()
	p.pos++
	return t
}

// accept consumes the next token if it equals (case-insensitively) s.
func (p *parser) accept(s string) bool {
	if !p.eof() && strings.EqualFold(p.toks[p.pos], s) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(s string) error {
	if !p.accept(s) {
		return p.errf("expected %q, found %q", s, p.peek())
	}
	return nil
}

func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("workload: parse error near token %d: %s", p.pos, fmt.Sprintf(format, args...))
}

// statement parses one SELECT or UPDATE.
func (p *parser) statement(n int) (*Statement, error) {
	switch {
	case p.accept("SELECT"):
		q, weight, err := p.selectStmt()
		if err != nil {
			return nil, err
		}
		q.ID = fmt.Sprintf("parsed-%04d", n)
		q.Template = "parsed"
		return &Statement{Query: q, Weight: weight}, nil
	case p.accept("UPDATE"):
		u, weight, err := p.updateStmt()
		if err != nil {
			return nil, err
		}
		u.ID = fmt.Sprintf("parsed-%04d", n)
		return &Statement{Update: u, Weight: weight}, nil
	default:
		return nil, p.errf("expected SELECT or UPDATE, found %q", p.peek())
	}
}

var aggFuncs = map[string]bool{"SUM": true, "COUNT": true, "AVG": true, "MIN": true, "MAX": true, "AGG": true}

func (p *parser) selectStmt() (*Query, float64, error) {
	q := &Query{}
	// Select list (column refs, optionally wrapped in aggregates);
	// table names are not known yet, so collect raw names first.
	type rawItem struct {
		name string
		agg  bool
	}
	var items []rawItem
	for {
		tok := p.next()
		if aggFuncs[strings.ToUpper(tok)] {
			q.Aggregate = true
			if err := p.expect("("); err != nil {
				return nil, 0, err
			}
			// Aggregates accept a column list (the AGG(...) rendering
			// wraps the whole select list) or `*`.
			for {
				inner := p.next()
				if inner != "*" {
					items = append(items, rawItem{name: inner, agg: true})
				}
				if !p.accept(",") {
					break
				}
			}
			if err := p.expect(")"); err != nil {
				return nil, 0, err
			}
		} else {
			items = append(items, rawItem{name: tok})
		}
		if !p.accept(",") {
			break
		}
	}
	if err := p.expect("FROM"); err != nil {
		return nil, 0, err
	}
	for {
		t := p.next()
		if p.cat.Table(t) == nil {
			return nil, 0, p.errf("unknown table %q", t)
		}
		if inScope(q.Tables, t) {
			return nil, 0, p.errf("table %q repeated in FROM clause", t)
		}
		if len(q.Tables) == MaxTables {
			return nil, 0, p.errf("FROM clause lists more than %d tables", MaxTables)
		}
		q.Tables = append(q.Tables, t)
		if !p.accept(",") {
			break
		}
	}
	p.scope = q.Tables
	for _, it := range items {
		ref, err := p.resolve(it.name)
		if err != nil {
			return nil, 0, err
		}
		q.Select = append(q.Select, ref)
	}

	if p.accept("WHERE") {
		for {
			if err := p.condition(q); err != nil {
				return nil, 0, err
			}
			if !p.accept("AND") {
				break
			}
		}
	}
	if p.accept("GROUP") {
		if err := p.expect("BY"); err != nil {
			return nil, 0, err
		}
		refs, err := p.columnList()
		if err != nil {
			return nil, 0, err
		}
		q.GroupBy = refs
		q.Aggregate = true
	}
	if p.accept("ORDER") {
		if err := p.expect("BY"); err != nil {
			return nil, 0, err
		}
		refs, err := p.columnList()
		if err != nil {
			return nil, 0, err
		}
		q.OrderBy = refs
	}
	weight, err := p.weight()
	return q, weight, err
}

func (p *parser) updateStmt() (*Update, float64, error) {
	u := &Update{}
	u.Table = p.next()
	if p.cat.Table(u.Table) == nil {
		return nil, 0, p.errf("unknown table %q", u.Table)
	}
	p.scope = []string{u.Table}
	if err := p.expect("SET"); err != nil {
		return nil, 0, err
	}
	for {
		ref, err := p.resolve(p.next())
		if err != nil {
			return nil, 0, err
		}
		if ref.Table != u.Table {
			return nil, 0, p.errf("SET column %s not on %s", ref, u.Table)
		}
		if err := p.expect("="); err != nil {
			return nil, 0, err
		}
		p.next() // the assigned value; ignored by the cost model
		u.SetCols = append(u.SetCols, ref.Column)
		if !p.accept(",") {
			break
		}
	}
	if p.accept("WHERE") {
		shell := &Query{Tables: []string{u.Table}}
		for {
			if err := p.condition(shell); err != nil {
				return nil, 0, err
			}
			if !p.accept("AND") {
				break
			}
		}
		if len(shell.Joins) > 0 {
			return nil, 0, p.errf("UPDATE WHERE clauses cannot join")
		}
		u.Where = shell.Preds
	}
	weight, err := p.weight()
	return u, weight, err
}

// weight parses the optional WEIGHT suffix (default 1).
func (p *parser) weight() (float64, error) {
	if !p.accept("WEIGHT") {
		return 1, nil
	}
	v, err := parseConst(p.next())
	if err != nil {
		return 0, p.errf("bad weight: %v", err)
	}
	return v, nil
}

// condition parses one WHERE conjunct into q (join or predicate).
func (p *parser) condition(q *Query) error {
	left, err := p.resolve(p.next())
	if err != nil {
		return err
	}
	op := p.next()
	switch strings.ToUpper(op) {
	case "=":
		rhs := p.peek()
		if looksLikeColumn(rhs) {
			if ref, err := p.resolve(rhs); err == nil {
				p.next()
				q.Joins = append(q.Joins, Join{Left: left, Right: ref})
				return nil
			}
		}
		v, err := parseConst(p.next())
		if err != nil {
			return p.errf("bad constant: %v", err)
		}
		q.Preds = append(q.Preds, Predicate{Col: left, Op: OpEq, Lo: v})
	case "<", "<=":
		v, err := parseConst(p.next())
		if err != nil {
			return p.errf("bad constant: %v", err)
		}
		q.Preds = append(q.Preds, Predicate{Col: left, Op: OpLt, Hi: v})
	case ">", ">=":
		v, err := parseConst(p.next())
		if err != nil {
			return p.errf("bad constant: %v", err)
		}
		q.Preds = append(q.Preds, Predicate{Col: left, Op: OpGt, Lo: v})
	case "BETWEEN":
		lo, err := parseConst(p.next())
		if err != nil {
			return p.errf("bad constant: %v", err)
		}
		if err := p.expect("AND"); err != nil {
			return err
		}
		hi, err := parseConst(p.next())
		if err != nil {
			return p.errf("bad constant: %v", err)
		}
		q.Preds = append(q.Preds, Predicate{Col: left, Op: OpRange, Lo: lo, Hi: hi})
	default:
		return p.errf("unsupported operator %q", op)
	}
	return nil
}

// columnList parses comma-separated column references.
func (p *parser) columnList() ([]catalog.ColumnRef, error) {
	var out []catalog.ColumnRef
	for {
		ref, err := p.resolve(p.next())
		if err != nil {
			return nil, err
		}
		out = append(out, ref)
		if !p.accept(",") {
			break
		}
	}
	return out, nil
}

// looksLikeColumn distinguishes column tokens from constants.
func looksLikeColumn(tok string) bool {
	return len(tok) > 0 && isIdent(tok[0])
}

// parseConst reads a normalized position constant (`:0.35` or `0.35`).
// NaN and infinities (`:NaN`, `:Inf`) are refused: no histogram can
// place them.
func parseConst(tok string) (float64, error) {
	v, err := strconv.ParseFloat(strings.TrimPrefix(tok, ":"), 64)
	if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		return 0, fmt.Errorf("constant %q is not finite", tok)
	}
	return v, err
}

// resolve turns a (possibly unqualified) column token into a reference
// against the statement's table scope.
func (p *parser) resolve(tok string) (catalog.ColumnRef, error) {
	if !looksLikeColumn(tok) {
		return catalog.ColumnRef{}, p.errf("expected column, found %q", tok)
	}
	if dot := strings.IndexByte(tok, '.'); dot >= 0 {
		ref := catalog.ColumnRef{Table: tok[:dot], Column: tok[dot+1:]}
		if _, _, err := p.cat.Column(ref); err != nil {
			return catalog.ColumnRef{}, p.errf("%v", err)
		}
		if !inScope(p.scope, ref.Table) {
			return catalog.ColumnRef{}, p.errf("table %q not in FROM clause", ref.Table)
		}
		return ref, nil
	}
	var found []catalog.ColumnRef
	for _, t := range p.scope {
		if tb := p.cat.Table(t); tb != nil && tb.Column(tok) != nil {
			found = append(found, catalog.ColumnRef{Table: t, Column: tok})
		}
	}
	switch len(found) {
	case 1:
		return found[0], nil
	case 0:
		return catalog.ColumnRef{}, p.errf("unknown column %q in scope %v", tok, p.scope)
	default:
		return catalog.ColumnRef{}, p.errf("ambiguous column %q (in %v)", tok, found)
	}
}

func inScope(scope []string, table string) bool {
	for _, t := range scope {
		if t == table {
			return true
		}
	}
	return false
}
