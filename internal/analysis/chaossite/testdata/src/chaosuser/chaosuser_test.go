package chaosuser

import "cbs/internal/analysis/chaossite/testdata/src/chaos"

// seedMatrix mirrors the chaos-smoke seed matrices: Config rates cover
// Breakdown (and its restart variant) and TornRecord.
var seedMatrix = []chaos.Config{
	{Breakdown: 0.5, RestartBreakdown: 0.5},
	{TornRecord: 0.25},
}

// chaosEnv covers EnergyFault through its seed-matrix env key.
var chaosEnv = []string{"CBS_CHAOS_ENERGY=0.5"}

// exerciseCheckpoint covers CheckpointFault by calling it directly.
func exerciseCheckpoint(in *chaos.Injector) bool {
	_ = seedMatrix
	_ = chaosEnv
	return in.CheckpointFault(0)
}
