package main

// Exact outputs for the default seed (--seed 1) at full scale. The engines
// are bit-identical for any worker count and lane width, so these hold on
// every host; a change that moves one changed what the program computes.

type atpgPin struct {
	patterns   int
	backtracks int64
}

var atpgPins = map[string]atpgPin{
	"rand32.400.1": {patterns: 68, backtracks: 71865},
	"rand32.400.2": {patterns: 73, backtracks: 173844},
}

type diagPin struct {
	digest     uint64
	top1, top5 int
}

var diagPins = map[string]diagPin{
	"rand64.2000.3": {digest: 0xab3f0accdc18d877, top1: 20, top5: 20},
}

var clusterPins = map[string]uint64{
	"rand64.3000.3": 0xf531fba2c7b69692,
}
