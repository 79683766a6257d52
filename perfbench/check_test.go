package main

import (
	"strings"
	"testing"

	"mkse/internal/core"
	"mkse/internal/protocol"
	"mkse/internal/service"
)

// The per-request gate rejects every malformed result shape.
func TestCheckMatchesRejectsBadResults(t *testing.T) {
	s := &system{sp: spec{topK: 2}, known: map[string]bool{"a": true, "b": true, "c": true}}
	var err error
	if s.owner, err = core.NewOwnerDeterministic(params(), 1, 2); err != nil {
		t.Fatal(err)
	}
	m := func(id string, rank int) service.Match { return service.Match{DocID: id, Rank: rank} }
	for _, c := range []struct {
		ms      []service.Match
		wantHit bool
		want    string // substring of the complaint; "" = accepted
	}{
		{[]service.Match{m("b", 3), m("a", 1)}, true, ""},
		{[]service.Match{m("a", 2), m("b", 2)}, true, ""},
		{nil, false, ""},
		{nil, true, "no match"},
		{[]service.Match{m("a", 1), m("b", 1), m("c", 1)}, true, "exceed"},
		{[]service.Match{m("zz", 1)}, true, "unknown"},
		{[]service.Match{m("a", 4)}, true, "outside"},
		{[]service.Match{m("a", 1), m("b", 2)}, true, "order"},
		{[]service.Match{m("b", 2), m("a", 2)}, true, "order"},
	} {
		got := s.checkMatches(c.ms, c.wantHit)
		if (c.want == "") != (got == "") || !strings.Contains(got, c.want) {
			t.Errorf("checkMatches(%v, %v) = %q, want %q", c.ms, c.wantHit, got, c.want)
		}
	}
	if got := s.checkWire([]protocol.MatchWire{{DocID: "a", Rank: 1}, {DocID: "b", Rank: 3}}); !strings.Contains(got, "order") {
		t.Errorf("checkWire accepted an out-of-order wire result: %q", got)
	}
}
