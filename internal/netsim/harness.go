package netsim

import "fmt"

// Engine is one of the four test setups of Section III.
type Engine struct {
	// Name identifies the setup, matching the series labels of Figure 3.
	Name string
	// DeterministicResults reports whether repeated runs must produce
	// identical fingerprints. True for both Spawn & Merge engines (that is
	// the paper's claim) and for the conventional ring-routing setup.
	DeterministicResults bool
	// Routing the engine must be run with.
	Routing Routing
	// Run executes one simulation.
	Run func(Config) (Result, error)
}

// Engines returns the paper's four test setups in the order of Figure 3's
// legend.
func Engines() []Engine {
	conv := func(cfg Config) (Result, error) { return RunConventional(cfg), nil }
	return []Engine{
		{Name: "conventional-nondet", DeterministicResults: false, Routing: RouteHash, Run: conv},
		{Name: "conventional-det", DeterministicResults: true, Routing: RouteRing, Run: conv},
		{Name: "spawnmerge-nondet", DeterministicResults: true, Routing: RouteHash, Run: RunSpawnMerge},
		{Name: "spawnmerge-det", DeterministicResults: true, Routing: RouteRing, Run: RunSpawnMerge},
	}
}

// BaselineEngines returns the additional Go-idiomatic channel baselines
// (not part of the paper's four setups).
func BaselineEngines() []Engine {
	ch := func(cfg Config) (Result, error) { return RunConventionalChannels(cfg), nil }
	return []Engine{
		{Name: "channels-nondet", DeterministicResults: false, Routing: RouteHash, Run: ch},
		{Name: "channels-det", DeterministicResults: true, Routing: RouteRing, Run: ch},
	}
}

// AllEngines returns every engine: the paper's four and the channel
// baselines.
func AllEngines() []Engine {
	return append(Engines(), BaselineEngines()...)
}

// RunEngine runs the named engine after forcing cfg.Routing to the
// engine's routing.
func RunEngine(name string, cfg Config) (Result, error) {
	for _, e := range AllEngines() {
		if e.Name == name {
			cfg.Routing = e.Routing
			return e.Run(cfg)
		}
	}
	return Result{}, fmt.Errorf("netsim: unknown engine %q", name)
}
