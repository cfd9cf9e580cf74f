package engine

import (
	"strings"
	"testing"
)

// TestSystemByName covers the -system lookup: both profiles in either
// case, and an unknown name refused with the accepted values listed.
func TestSystemByName(t *testing.T) {
	for _, c := range []struct {
		name string
		want string // profile name; empty means refused
	}{
		{"A", "System-A"},
		{"a", "System-A"},
		{"B", "System-B"},
		{"b", "System-B"},
		{"C", ""},
		{"", ""},
		{"System-B", ""},
		{" B", ""},
	} {
		p, err := SystemByName(c.name)
		if c.want == "" {
			if err == nil {
				t.Errorf("SystemByName(%q) = %s, want an error", c.name, p.Name)
			} else if !strings.Contains(err.Error(), "want A or B") {
				t.Errorf("SystemByName(%q) error %q does not list the accepted values", c.name, err)
			}
			continue
		}
		if err != nil || p.Name != c.want {
			t.Errorf("SystemByName(%q) = %s, %v; want %s", c.name, p.Name, err, c.want)
		}
	}
}
