package trace_test

import (
	"fmt"
	"testing"

	"vidi/internal/apps"
	"vidi/internal/eval"
	"vidi/internal/trace"
)

// TestIndexMatchesReferenceOnApps checks the one-pass transaction index
// against the reference reconstruction on every application's R2
// recording, for three environment seeds.
func TestIndexMatchesReferenceOnApps(t *testing.T) {
	names := apps.Names()
	if len(names) != 13 {
		t.Fatalf("%d apps registered, want 13", len(names))
	}
	for _, app := range names {
		for _, seed := range []int64{1, 7, 42} {
			t.Run(fmt.Sprintf("%s/%d", app, seed), func(t *testing.T) {
				rec, err := eval.Run(eval.RunConfig{App: app, Scale: 1, Seed: seed, Cfg: eval.R2})
				if err != nil {
					t.Fatal(err)
				}
				trace.CheckIndex(t, rec.Trace)
			})
		}
	}
}
