package main

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestLedgerReconcile(t *testing.T) {
	l := &ledger{
		Workload: "w", E2EBusyS: 10, E2EWhat: "2 workers x 5s",
		Rows: []ledgerRow{
			{Layer: "trace", What: "parse", Count: 1e6, BusyS: 1, Summed: true},
			{Layer: "matching", What: "MatchInto", Count: 2e6, BusyS: 6, Summed: true},
			// Overlaps matching: shown, not added.
			{Layer: "engine", What: "settle", Count: 100, BusyS: 4},
			{Layer: "consumelocal", What: "push", Count: 10, WaitS: 0.5, Summed: true},
		},
		PeersPerCall: 16,
	}
	if got := l.explained(); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("explained %g, want 0.75: only summed rows count", got)
	}
	if got := l.share(l.Rows[2]); got != 0.4 {
		t.Fatalf("engine share %g, want 0.4", got)
	}
	if got := l.share(l.Rows[3]); got != 0.05 {
		t.Fatalf("push share %g, want 0.05: wait time counts", got)
	}
	if top := l.largest(); top.Layer != "matching" {
		t.Fatalf("largest %q, want matching", top.Layer)
	}
	var out bytes.Buffer
	l.print(&out)
	for _, want := range []string{"explained  75.0%", "largest    matching", "peers_per_call_mean 16", "40.0%~", "3000"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("ledger printout lacks %q:\n%s", want, out.String())
		}
	}
	empty := &ledger{}
	if empty.explained() != 0 || empty.share(ledgerRow{BusyS: 1}) != 0 {
		t.Fatal("an empty ledger must not divide by zero")
	}
}
