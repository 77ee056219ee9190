package gen

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"selspec/internal/driver"
	"selspec/internal/interp"
	"selspec/internal/programs"
)

var updateProfiles = flag.Bool("update-profiles", false, "rewrite testdata/profiles from the current recorder")

// profileJSON runs b's training input under Base on one engine with
// profiling on, as a Selective run does, and returns the canonical JSON
// of the recorded call graph.
func profileJSON(t *testing.T, b programs.Benchmark, eng driver.Engine) []byte {
	t.Helper()
	p, err := driver.LoadNamed(b.Name, b.Source)
	if err != nil {
		t.Fatalf("load %s: %v", b.Name, err)
	}
	cg, err := p.CollectProfile(driver.RunOptions{
		Overrides: b.Train,
		Mechanism: interp.MechPIC,
		Engine:    eng,
		StepLimit: gridGuards.StepLimit,
	})
	if err != nil {
		t.Fatalf("%s: profile run on %v: %v", b.Name, eng, err)
	}
	data, err := cg.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// compareProfileEngines requires the profile recorded on the VM to be
// byte-identical to the tree tier's, and returns it.
func compareProfileEngines(t *testing.T, b programs.Benchmark) []byte {
	t.Helper()
	tree := profileJSON(t, b, driver.EngineTree)
	vm := profileJSON(t, b, driver.EngineVM)
	if !bytes.Equal(tree, vm) {
		t.Errorf("%s: VM profile differs from the tree tier's (%d vs %d bytes)", b.Name, len(vm), len(tree))
	}
	return vm
}

// TestProfileGolden: the training profile of every embedded benchmark
// is the same on both engines and byte-identical to the committed
// canonical JSON, so a change to how profiles are recorded cannot move
// an arc weight, a tuple or the order they are written in.
// Regenerate with -update-profiles only when the profile is meant to
// change.
func TestProfileGolden(t *testing.T) {
	for _, b := range programs.Registry() {
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			got := compareProfileEngines(t, b)
			path := filepath.Join("testdata", "profiles", b.Name+".json")
			if *updateProfiles {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: training profile differs from %s (%d vs %d bytes)", b.Name, path, len(got), len(want))
			}
		})
	}
}

// TestProfileEnginesGrid: on the differential grid's generated
// programs, the VM records exactly the tree tier's profile.
func TestProfileEnginesGrid(t *testing.T) {
	seeds := uint64(25)
	if testing.Short() {
		seeds = 5
	}
	for seed := uint64(1); seed <= seeds; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			g := New(Config{Seed: seed, Classes: 30, Methods: 120, CheckClean: seed%3 == 0})
			compareProfileEngines(t, g.Benchmark())
		})
	}
}
