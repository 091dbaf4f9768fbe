#pragma once

#include "src/core/engine.hpp"
#include "src/obs/recovery.hpp"

namespace beepmis::core {

/// One full look at the engine's settlement view. Level-range sanity —
/// every ℓ(v) inside the variant's admissible [member_level(v), lmax(v)]
/// window — comes from the one Engine::pack_levels pass, O(n). Only when
/// `claims_stabilized` or the engine reports stabilized, independence and
/// maximality of I_t are derived from the packed level bits (a member
/// level with every neighbor at its cap), never from the engine's
/// settlement: O(n + m) over the candidates' and members' rows. Kernel-
/// and engine-independent: pack_levels and is_stabilized are part of the
/// stream-identical Engine surface, so both fast kernels and the
/// reference executor probe to identical results. Stateless: the same
/// pass as a fresh make_invariant_probe's first settled check.
obs::InvariantProbeResult probe_invariants(const Engine& engine,
                                           bool claims_stabilized);

/// The closure the obs-layer invariant machinery consumes (the obs layer
/// cannot see core::Engine, mirroring FlightRecorder::LevelProbe). It is
/// stateful: it keeps the level bits and the derived member and dominated
/// bits of its last settled check (4 n-bit arrays, plus 2 for the pack and
/// 1 for a work list), so a settled check claimed by its caller costs the
/// O(n) pack, an O(n/64) XOR and word scan, and row work only in
/// N²(changed), each row there read at most once per pass, where changed
/// are the vertices whose capped or candidate bit differs from the
/// snapshot. The first settled check, one whose changed set exceeds
/// n/170 + 32 bits (the measured point where patching stops beating a
/// rebuild), and one the caller does not claim (the engine reports stabilized on
/// its own, as at RecoveryTracker::finalize) are full passes that rebuild
/// the snapshot. Copies share one snapshot. The engine must outlive the
/// probe.
obs::InvariantProbe make_invariant_probe(const Engine& engine);

/// The flight recorder's level probe over `engine`: every vertex's current
/// level, for periodic snapshots and the dump's final levels. The engine
/// must outlive the probe.
obs::FlightRecorder::LevelProbe make_level_probe(const Engine& engine);

}  // namespace beepmis::core
