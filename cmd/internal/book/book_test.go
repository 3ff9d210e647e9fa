package book

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"infoslicing/internal/wire"
)

func TestLoadAndRequire(t *testing.T) {
	path := filepath.Join(t.TempDir(), "overlay.book")
	text := "# relays\n1 127.0.0.1:7001\n\n2 127.0.0.1:7002\n100 127.0.0.1:7100\n"
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	addrs, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs) != 3 || addrs[2] != "127.0.0.1:7002" {
		t.Fatalf("Load = %v", addrs)
	}
	for _, c := range []struct {
		ids     string
		missing string // "" when every id is in the book
	}{
		{"1", ""},
		{"1,2,100", ""},
		{"99", "99"},
		{"1,99,2", "99"},
		{"2,101", "101"},
	} {
		ids, err := ParseIDs(c.ids)
		if err != nil {
			t.Fatal(err)
		}
		err = Require(addrs, ids)
		if c.missing == "" {
			if err != nil {
				t.Errorf("Require(%s) = %v, want nil", c.ids, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.missing) {
			t.Errorf("Require(%s) = %v, want an error naming id %s", c.ids, err, c.missing)
		}
	}
	if err := Require(addrs, []wire.NodeID{}); err != nil {
		t.Errorf("Require of no ids = %v", err)
	}
}
