// Snapshot file identity for ServeLoop::save/restore (implemented in
// snapshot.cpp on the shared util/bytes.hpp codec). Format: little-endian,
// versioned, with an explicit config fingerprint — a snapshot taken under
// one workload config refuses to load into another, while the thread
// count (which never affects results) is free to differ. Files are
// written atomically: `<path>.tmp.<pid>` then rename, like the model
// cache, so a crash mid-save never corrupts the previous snapshot.
#pragma once

#include <cstdint>

namespace origin::serve {

inline constexpr char kSnapshotMagic[8] = {'O', 'R', 'G', 'N',
                                           'S', 'N', 'A', 'P'};
/// Version 2 added the inference word width (ServeConfig::bits) and the
/// active kernel backend name to the config fingerprint: both change the
/// served bits, so a snapshot refuses to load under a different one.
/// Version 3 added per-user personalization: the PersonalizeConfig fields
/// join the fingerprint (fine-tuning changes results), completed records
/// carry fine-tune aggregates, and active sessions store their sample
/// buffer plus per-sensor weight deltas so a restored fleet resumes
/// serving personalized models.
/// Version 4 added the cross-session batching stats (serve.batch_panels /
/// serve.batch_windows counters and the serve.batch_occupancy histogram
/// cell), carried wholesale so /status stays continuous across a restore
/// — unlike the other deterministic metrics, they cannot be replayed from
/// the completed log.
/// Version 5 dropped the per-node precomputed-result record: an in-flight
/// NVP task carries only the window it began on.
/// Version 6 changed no record: fine-tuning became tail-only (the frozen
/// prefix never trains), so a v5 delta came from a fit this loop would no
/// longer run, and a v5 snapshot is refused.
/// Version 7 changed no record: windows became keyed by (stream seed,
/// slot, sensor), so a restored cursor re-derives different windows than
/// a v6 process served, and a v6 snapshot is refused.
/// Version 8 stores a buffered personalization sample as its label and
/// slot recipe (data::SlotRecipe, about 50 bytes) instead of its three
/// windows (4.7 KB); the restored session re-synthesizes them from its own
/// stream, and restore refuses a record that is not one of the session's
/// served slots.
inline constexpr std::uint32_t kSnapshotVersion = 8;

}  // namespace origin::serve
