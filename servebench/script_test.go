package main

import (
	"bytes"
	"context"
	"encoding/json"
	"slices"
	"testing"

	"fisql"
)

func scriptJSON(t *testing.T, seed int64) ([]byte, *script) {
	t.Helper()
	sys, err := fisql.NewExperiencePlatformSystem()
	if err != nil {
		t.Fatal(err)
	}
	sc, err := buildScript(context.Background(), sys, seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	return b, sc
}

// Each script comes from its own System, so nothing cached in one can make
// another agree.
func TestScriptDeterministic(t *testing.T) {
	a, sa := scriptJSON(t, 1)
	b, _ := scriptJSON(t, 1)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed gave different scripts")
	}
	_, sc := scriptJSON(t, 2)
	if slices.Equal(sa.Order, sc.Order) {
		t.Fatal("different seeds gave the same session order")
	}
	if slices.Equal(passOrder(1, 1, len(sa.Sessions)), passOrder(1, 2, len(sa.Sessions))) {
		t.Fatal("consecutive passes share one order")
	}
	sorted := slices.Clone(sc.Order)
	slices.Sort(sorted)
	for i, v := range sorted {
		if v != i {
			t.Fatalf("order is not a permutation of the sessions: %v", sc.Order)
		}
	}
}

// The script reproduces the paper's aep tallies, and every feedback turn's
// highlight occurs at its offset in the SQL it refers to.
func TestScriptMatchesPaper(t *testing.T) {
	_, sc := scriptJSON(t, 1)
	if got := sc.tallies(); got != paperTallies {
		t.Fatalf("tallies %s, want %s", got, paperTallies)
	}
	for _, ss := range sc.Sessions {
		for i, tn := range ss.Turns {
			if tn.Feedback != (i > 0) || len(tn.Body) == 0 {
				t.Fatalf("%s turn %d: malformed %+v", ss.Example, i, tn)
			}
			if tn.HighlightStart < 0 {
				continue
			}
			prev := ss.Turns[i-1].SQL
			if end := tn.HighlightStart + len(tn.Highlight); end > len(prev) || prev[tn.HighlightStart:end] != tn.Highlight {
				t.Fatalf("%s turn %d: highlight %q not at %d of %q", ss.Example, i, tn.Highlight, tn.HighlightStart, prev)
			}
		}
	}
}
