// Offline builder of the persistent capacity index (the build half of the
// build/query split; see DESIGN.md, "Persistent capacity index").
#ifndef VIEWCAP_INDEX_INDEX_WRITER_H_
#define VIEWCAP_INDEX_INDEX_WRITER_H_

#include <cstddef>
#include <string>

#include "algebra/enumerator.h"
#include "base/status.h"
#include "core/analyzer.h"

namespace viewcap {

/// Build tuning. `limits` are the SERVING limits: every stored verdict is
/// the exact answer the live engine gives under these limits, and the
/// reader refuses to serve probes using any other limits — that is what
/// makes index answers bit-identical to live answers by construction.
/// `max_leaves`/`max_entries_per_view` only bound the saturation sweep
/// (which queries get precomputed), not the answers themselves.
struct IndexBuildOptions {
  /// Leaf budget of the per-view capacity enumeration that decides which
  /// query classes get stored.
  std::size_t max_leaves = 4;
  /// Cap on stored capacity members per view.
  std::size_t max_entries_per_view = 256;
  /// The search limits verdicts are computed (and later served) under.
  SearchLimits limits;
};

struct IndexBuildStats {
  std::size_t classes = 0;
  std::size_t sets = 0;
  std::size_t verdicts = 0;
  std::size_t dominance_entries = 0;
  std::size_t bytes = 0;
};

/// Closure-saturates every loaded view of `analyzer` up to the build
/// budget and serializes the complete index image: the sorted table of
/// exact canonical keys (one per stored class), per-view query sets,
/// membership verdicts (the per-view capacity sweep plus every cross-view
/// definition probe, negatives included) and whole dominance verdicts for
/// every ordered view pair. The analyzer's catalog fingerprint is captured before any
/// work and stamped into the header.
///
/// The per-view saturation and cross-view sweeps run in parallel over
/// views on the engine's shared pool when `options.limits.threads` allows
/// (0 = hardware concurrency, 1 = serial); output bytes are identical for
/// every thread count — the order-sensitive steps (class ordinals, dedup)
/// run serially after the parallel phase.
Result<std::string> BuildIndexBytes(Analyzer& analyzer,
                                    const IndexBuildOptions& options,
                                    IndexBuildStats* stats = nullptr);

/// BuildIndexBytes + atomic file publication (temp file in the target
/// directory, then rename), so a crashed build never leaves a torn index
/// at `path`.
Result<IndexBuildStats> BuildIndexFile(Analyzer& analyzer,
                                       const std::string& path,
                                       const IndexBuildOptions& options);

}  // namespace viewcap

#endif  // VIEWCAP_INDEX_INDEX_WRITER_H_
