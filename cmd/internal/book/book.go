// Package book parses the overlay address-book files shared by the
// slicenode and slicesend commands: one "id host:port" pair per line, with
// '#' comments and blank lines ignored.
package book

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"

	"infoslicing/internal/wire"
)

// Load reads an address book file.
func Load(path string) (map[wire.NodeID]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[wire.NodeID]string)
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 {
			return nil, fmt.Errorf("%s:%d: want 'id host:port'", path, line)
		}
		id, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil || id == 0 {
			return nil, fmt.Errorf("%s:%d: bad id %q", path, line, fields[0])
		}
		if _, dup := out[wire.NodeID(id)]; dup {
			return nil, fmt.Errorf("%s:%d: duplicate id %d", path, line, id)
		}
		out[wire.NodeID(id)] = fields[1]
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: empty address book", path)
	}
	return out, nil
}

// Require checks that every id has an address in the book. The static
// transports bind an id without one to an ephemeral loopback port that no
// other process can resolve, so a daemon or source endpoint named outside
// the shared book file would be unreachable.
func Require(addrs map[wire.NodeID]string, ids []wire.NodeID) error {
	for _, id := range ids {
		if _, ok := addrs[id]; !ok {
			return fmt.Errorf("id %d not in address book", id)
		}
	}
	return nil
}

// ParseIDs parses a comma-separated id list ("3,4,5").
func ParseIDs(s string) ([]wire.NodeID, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("empty id list")
	}
	var out []wire.NodeID
	for _, part := range strings.Split(s, ",") {
		id, err := strconv.ParseUint(strings.TrimSpace(part), 10, 32)
		if err != nil || id == 0 {
			return nil, fmt.Errorf("bad id %q", part)
		}
		out = append(out, wire.NodeID(id))
	}
	return out, nil
}
