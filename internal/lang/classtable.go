package lang

import "fmt"

// ClassTable resolves class names to declarations and implements the
// auxiliary lookups of Fig. 5: fields(C) collects inherited and declared
// fields, and mbody(m, C) walks the superclass chain. The table is mutable
// at run time: Runtime.defineClass installs new classes during execution
// (modelling dynamic class loading / code generation).
type ClassTable struct {
	classes map[string]*Class
	order   []string
}

// ObjectClass is the implicit root of the class hierarchy.
const ObjectClass = "Object"

// NewClassTable builds a table from the program's class declarations.
func NewClassTable(p *Program) (*ClassTable, error) {
	ct := &ClassTable{classes: make(map[string]*Class)}
	for _, c := range p.Classes {
		if err := ct.Define(c); err != nil {
			return nil, err
		}
	}
	return ct, nil
}

// Define installs a class, rejecting duplicates and redefinitions of
// Object.
func (ct *ClassTable) Define(c *Class) error {
	if c.Name == ObjectClass {
		return fmt.Errorf("lang: cannot redefine class Object")
	}
	if _, dup := ct.classes[c.Name]; dup {
		return fmt.Errorf("lang: duplicate class %s", c.Name)
	}
	ct.classes[c.Name] = c
	ct.order = append(ct.order, c.Name)
	return nil
}

// Lookup returns the class declaration, or nil for Object and unknown
// names.
func (ct *ClassTable) Lookup(name string) *Class { return ct.classes[name] }

// Names returns all defined class names in definition order.
func (ct *ClassTable) Names() []string { return append([]string(nil), ct.order...) }

// Fields implements fields(C): superclass fields first, then declared
// fields, following the chain up to Object (which has none).
func (ct *ClassTable) Fields(name string) ([]Field, error) {
	if name == ObjectClass {
		return nil, nil
	}
	c := ct.classes[name]
	if c == nil {
		return nil, fmt.Errorf("lang: unknown class %s", name)
	}
	super, err := ct.Fields(c.Super)
	if err != nil {
		return nil, err
	}
	return append(append([]Field(nil), super...), c.Fields...), nil
}

// MBody implements mbody(m, C): the most-derived definition of m found on
// the chain from C up to Object. The boolean reports whether a definition
// exists. The second result is the class that defines the method (needed
// for fully qualified method names C.m in method views).
func (ct *ClassTable) MBody(method, class string) (*Method, string, bool) {
	for name := class; name != ObjectClass; {
		c := ct.classes[name]
		if c == nil {
			return nil, "", false
		}
		if m := c.Method(method); m != nil {
			return m, name, true
		}
		name = c.Super
	}
	return nil, "", false
}

// Ctor returns the constructor of class name, or nil for the implicit
// zero-argument constructor. Constructors are not inherited.
func (ct *ClassTable) Ctor(name string) *Method {
	if c := ct.classes[name]; c != nil {
		return c.Ctor
	}
	return nil
}

// IsSubclass reports whether sub is name or a (transitive) subclass of it.
func (ct *ClassTable) IsSubclass(sub, name string) bool {
	for cur := sub; ; {
		if cur == name {
			return true
		}
		if cur == ObjectClass {
			return false
		}
		c := ct.classes[cur]
		if c == nil {
			return false
		}
		cur = c.Super
	}
}
