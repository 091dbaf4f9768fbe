#pragma once

#include "src/core/engine.hpp"
#include "src/obs/recovery.hpp"

namespace beepmis::core {

/// One look at the engine's settlement view: claimed stabilization and
/// level-range sanity — every ℓ(v) inside the variant's admissible
/// [member_level(v), lmax(v)] window (Engine::levels_in_range) — in O(n);
/// then, only when `claims_stabilized` or the engine reports stabilized,
/// independence and maximality of the claimed membership (one omniscient
/// mis::check pass) in O(n + m). Kernel- and engine-independent: the settlement view
/// (mis_members / is_stabilized / level) is part of the stream-identical
/// Engine surface, so both fast kernels and the reference executor probe to
/// identical results.
obs::InvariantProbeResult probe_invariants(const Engine& engine,
                                           bool claims_stabilized);

/// Wraps probe_invariants as the closure the obs-layer invariant machinery
/// consumes (the obs layer cannot see core::Engine, mirroring
/// FlightRecorder::LevelProbe). The engine must outlive the probe.
obs::InvariantProbe make_invariant_probe(const Engine& engine);

/// The flight recorder's level probe over `engine`: every vertex's current
/// level, for periodic snapshots and the dump's final levels. The engine
/// must outlive the probe.
obs::FlightRecorder::LevelProbe make_level_probe(const Engine& engine);

}  // namespace beepmis::core
