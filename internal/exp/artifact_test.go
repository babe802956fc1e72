package exp

import (
	"bytes"
	"testing"

	"softstate/internal/report"
)

// TestBuildArtifactWrapsRun: experiments without a dedicated generator
// get a single analytic frame with full identity stamping.
func TestBuildArtifactWrapsRun(t *testing.T) {
	e, ok := ByID("fig5a")
	if !ok {
		t.Fatal("fig5a missing")
	}
	a, err := BuildArtifact(e, Options{Quick: true, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if a.Schema != report.ArtifactSchema || a.ID != "fig5a" || a.Mode != "quick" || a.Seed != 42 {
		t.Fatalf("identity stamping wrong: %+v", a)
	}
	if len(a.Frames) != 1 || a.Frames[0].Name != report.FrameAnalytic {
		t.Fatalf("want one analytic frame, got %+v", a.Frames)
	}
	if len(a.Frames[0].Rows) == 0 {
		t.Fatal("empty frame")
	}
}

// TestLive5ArtifactGolden is the artifact-determinism acceptance test on
// the cross-validated experiment: two same-seed quick builds must encode
// byte-identically, both frames must be present with recorded deltas and
// telemetry, and the embedded ordering checks must pass on the artifact
// itself.
func TestLive5ArtifactGolden(t *testing.T) {
	e, ok := ByID("live5")
	if !ok {
		t.Fatal("live5 missing")
	}
	o := Options{Quick: true, Seed: 7}
	a, err := BuildArtifact(e, o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildArtifact(e, o)
	if err != nil {
		t.Fatal(err)
	}
	var ba, bb bytes.Buffer
	if err := report.EncodeArtifact(&ba, a); err != nil {
		t.Fatal(err)
	}
	if err := report.EncodeArtifact(&bb, b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ba.Bytes(), bb.Bytes()) {
		t.Fatal("same-seed artifact builds are not byte-identical")
	}

	frameNamed(t, a, report.FrameAnalytic)
	lf := frameNamed(t, a, report.FrameLive)
	if len(lf.Rows) != 5 {
		t.Fatalf("live frame has %d rows, want 5", len(lf.Rows))
	}
	if len(a.Deltas) == 0 {
		t.Fatal("no live-vs-analytic deltas recorded")
	}
	if len(a.Telemetry) != 5 {
		t.Fatalf("want one telemetry snapshot per protocol, got %d", len(a.Telemetry))
	}
	for label, snap := range a.Telemetry {
		if len(snap) == 0 {
			t.Fatalf("empty telemetry snapshot for %s", label)
		}
	}
	if msgs := report.CheckOrderings(a); len(msgs) != 0 {
		t.Fatalf("live5's own ordering checks fail: %v", msgs)
	}
	// A regenerated same-seed artifact must diff clean against itself.
	if msgs := report.DiffArtifacts(a, b); len(msgs) != 0 {
		t.Fatalf("self-diff not clean: %v", msgs)
	}
}

// TestExtendedArtifactsQuick: every extended-axis experiment builds its
// quick artifact, passes its own embedded checks, and self-diffs clean.
func TestExtendedArtifactsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run live experiments")
	}
	for _, id := range []string{"ext-loss50", "ext-chain20", "ext-fanout1024", "ext-topology"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			e, _ := ByID(id)
			a, err := BuildArtifact(e, Options{Quick: true, Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			if len(a.Frames) == 0 || len(a.Frames[0].Rows) == 0 {
				t.Fatalf("degenerate artifact: %+v", a)
			}
			if msgs := report.CheckOrderings(a); len(msgs) != 0 {
				t.Fatalf("embedded checks fail: %v", msgs)
			}
			if msgs := report.DiffArtifacts(a, a); len(msgs) != 0 {
				t.Fatalf("self-diff not clean: %v", msgs)
			}
		})
	}
}
