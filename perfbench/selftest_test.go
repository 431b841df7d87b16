package main

import (
	"testing"
)

// heldOutSeed was not used while the benchmark was tuned.
const heldOutSeed = 7

// TestSelf checks, for every workload on the held-out seed, that every
// correctness gate passes, that a second untraced round reproduces the
// virtual-time metrics and the call and byte counts byte for byte, and
// that a traced round reproduces them too.
func TestSelf(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload three times")
	}
	for _, w := range []workload{paperMix(), fleetFlood(), tcpLoopback()} {
		t.Run(w.name, func(t *testing.T) {
			perInv := w.name == "tcp-loopback"
			var prints []string
			for i, traced := range []bool{false, false, true} {
				pr := newProbe(traced)
				r, err := w.round(heldOutSeed, pr, 0)
				if err != nil {
					t.Fatalf("round %d: %v", i+1, err)
				}
				for _, g := range r.gates {
					t.Errorf("round %d gate: %s", i+1, g)
				}
				if r.failed != 0 || r.inv == 0 {
					t.Errorf("round %d: %d of %d invocations failed", i+1, r.failed, r.inv)
				}
				if traced && len(pr.spans) == 0 {
					t.Errorf("traced round recorded no spans")
				}
				prints = append(prints, r.fingerprint(pr, perInv))
			}
			if prints[1] != prints[0] {
				t.Errorf("same seed, different rounds:\n  %s\n  %s", prints[0], prints[1])
			}
			if prints[2] != prints[0] {
				t.Errorf("traced round differs from untraced:\n  traced   %s\n  untraced %s", prints[2], prints[0])
			}
		})
	}
}
