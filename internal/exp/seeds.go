package exp

// Every RNG in the harness is seeded as
// stats.DeriveSeed(cfg.Seed, stream, indices...), giving each consumer
// a collision-free stream that depends only on the configured seed and
// the unit of work — never on execution order. Seeds are derived at
// the call sites, inside each draw, never inside sweepLevels or
// parallel.Map: whichever worker picks up draw (li, di) derives the
// generator a sequential loop would have, so every worker count gives
// bit-identical output.
//
// The ids are part of every experiment's output identity: renumbering
// them changes results exactly like changing the seed does, so new
// streams are appended, never inserted.
const (
	streamFigure2 uint64 = iota + 1
	streamMultiSeed
	streamLatency
	streamEnergy
	streamFigure3Trial
	streamFigure3Sim
	streamSolverAblation
	streamNaiveEDF
	streamDBFAblation
	streamFPAblation
	streamChaosAblation
	streamChaosWrap
	streamCampaign
)
