package exp

import (
	"fmt"

	"softstate/internal/report"
	"softstate/internal/telemetry"
)

// BuildArtifact produces the experiment's versioned artifact: what its
// Artifact generator returns, or its Run table wrapped as a single
// analytic frame. Either way the identity and provenance fields are
// stamped here, so generators only fill frames, deltas, telemetry, and
// checks.
func BuildArtifact(e Experiment, o Options) (*report.Artifact, error) {
	var a *report.Artifact
	if e.Artifact != nil {
		var err error
		a, err = e.Artifact(o)
		if err != nil {
			return nil, fmt.Errorf("exp: %s artifact: %w", e.ID, err)
		}
	} else {
		t, err := e.Run(o)
		if err != nil {
			return nil, fmt.Errorf("exp: %s: %w", e.ID, err)
		}
		a = &report.Artifact{Frames: []report.Frame{report.NewFrame(report.FrameAnalytic, t)}}
	}
	a.Schema = report.ArtifactSchema
	a.ID = e.ID
	a.Title = e.Title
	a.Description = e.Description
	a.Mode = "full"
	if o.Quick {
		a.Mode = "quick"
	}
	a.Seed = o.Seed
	return a, nil
}

// snapshotTelemetry curates a registry into the flat snapshot an
// artifact embeds: counters and gauges verbatim by series identity,
// histograms as count/p50/p99 entries. Under the virtual clock every
// value is a pure function of the run config, so snapshots are as
// deterministic as the result tables.
func snapshotTelemetry(reg *telemetry.Registry) report.TelemetrySnapshot {
	if reg == nil {
		return nil
	}
	snap := report.TelemetrySnapshot{}
	for _, s := range reg.Gather() {
		if s.Hist != nil {
			if s.Hist.Count == 0 {
				continue
			}
			snap[s.ID+"#count"] = float64(s.Hist.Count)
			snap[s.ID+"#p50_ns"] = float64(s.Hist.Quantile(0.50))
			snap[s.ID+"#p99_ns"] = float64(s.Hist.Quantile(0.99))
			continue
		}
		snap[s.ID] = s.Value
	}
	return snap
}
