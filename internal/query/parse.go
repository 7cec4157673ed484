package query

import (
	"fmt"

	"ktpm/internal/label"
)

// Parse reads the compact tree syntax:
//
//	tree  := node
//	node  := label [ '(' edge (',' edge)* ')' ]
//	edge  := ['/'] node        // leading '/' marks a parent-child edge;
//	                           // the default is '//' (ancestor-descendant)
//	label := [A-Za-z0-9_.-]+ | '*'
//
// Example: "a(b,/c(d,*))" is a root a with '//' child b and '/' child c,
// where c has '//' children d and a wildcard.
func Parse(in *label.Interner, s string) (*Tree, error) {
	p := &parser{in: in, s: s}
	b := NewBuilder(in)
	lbl, err := p.label()
	if err != nil {
		return nil, err
	}
	root := b.Root(lbl)
	if err := p.children(b, root); err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.s) {
		return nil, fmt.Errorf("query: trailing input at offset %d: %q", p.pos, p.s[p.pos:])
	}
	return b.Build()
}

// MustParse is Parse for literals in tests and examples; it panics on error.
func MustParse(in *label.Interner, s string) *Tree {
	t, err := Parse(in, s)
	if err != nil {
		panic(err)
	}
	return t
}

type parser struct {
	in  *label.Interner
	s   string
	pos int
}

func (p *parser) skipSpace() {
	for p.pos < len(p.s) && (p.s[p.pos] == ' ' || p.s[p.pos] == '\t' || p.s[p.pos] == '\n') {
		p.pos++
	}
}

func isLabelChar(c byte) bool {
	return c == '_' || c == '.' || c == '-' ||
		('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') || ('0' <= c && c <= '9')
}

func (p *parser) label() (string, error) {
	p.skipSpace()
	if p.pos < len(p.s) && p.s[p.pos] == '*' {
		p.pos++
		return label.WildcardName, nil
	}
	start := p.pos
	for p.pos < len(p.s) && isLabelChar(p.s[p.pos]) {
		p.pos++
	}
	if p.pos == start {
		return "", fmt.Errorf("query: expected label at offset %d in %q", p.pos, p.s)
	}
	return p.s[start:p.pos], nil
}

func (p *parser) children(b *Builder, parent int32) error {
	p.skipSpace()
	if p.pos >= len(p.s) || p.s[p.pos] != '(' {
		return nil
	}
	p.pos++ // consume '('
	for {
		p.skipSpace()
		kind := Descendant
		if p.pos < len(p.s) && p.s[p.pos] == '/' {
			kind = Child
			p.pos++
		}
		lbl, err := p.label()
		if err != nil {
			return err
		}
		node := b.AddChild(parent, lbl, kind)
		if err := p.children(b, node); err != nil {
			return err
		}
		p.skipSpace()
		if p.pos >= len(p.s) {
			return fmt.Errorf("query: unterminated '(' in %q", p.s)
		}
		switch p.s[p.pos] {
		case ',':
			p.pos++
		case ')':
			p.pos++
			return nil
		default:
			return fmt.Errorf("query: expected ',' or ')' at offset %d in %q", p.pos, p.s)
		}
	}
}

// Chain builds the degenerate path query l0 // l1 // ... // ln, a common
// shape in tests and benchmarks.
func Chain(in *label.Interner, labels ...string) *Tree {
	if len(labels) == 0 {
		panic("query: Chain needs at least one label")
	}
	b := NewBuilder(in)
	cur := b.Root(labels[0])
	for _, l := range labels[1:] {
		cur = b.AddChild(cur, l, Descendant)
	}
	t, err := b.Build()
	if err != nil {
		panic(err)
	}
	return t
}

// Star builds a root with the given '//' children, the twig shape of the
// paper's Figure 1(a).
func Star(in *label.Interner, root string, children ...string) *Tree {
	b := NewBuilder(in)
	r := b.Root(root)
	for _, c := range children {
		b.AddChild(r, c, Descendant)
	}
	t, err := b.Build()
	if err != nil {
		panic(err)
	}
	return t
}
