#ifndef QOF_E2EBENCH_INPROC_H_
#define QOF_E2EBENCH_INPROC_H_

// The timed and traced loops shared by the two in-process workloads
// (grammar-disk, bibtex-twophase): one client, a closed loop over the
// fixed op sequence, production query options (caches off, serial IR
// execution, prefetch on).

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "qof/engine/system.h"
#include "trace.h"

namespace e2e {

/// FQL text -> hash of its reference rows. A query missing here failed
/// on the reference system, so every op running it fails its check.
using RefHashes = std::map<std::string, uint64_t>;

/// Reference rows of every distinct query in `ops`, computed on `ref`.
RefHashes ReferenceHashes(qof::FileQuerySystem& ref,
                          const std::vector<Op>& ops);

/// What a workload's set-up hands to the shared loops.
struct InProcessSetup {
  std::unique_ptr<qof::FileQuerySystem> sut;  // the system under test
  double setup_s = 0;      // median over the run's set-ups
  double space_ratio = 0;  // index bytes per corpus byte
  double reference_s = 0;  // untimed: computing reference hashes
  LayerValues layers;      // set-up layer metrics (traced run only)
};

/// Warm-up, the timed loop and, with --trace 1, the traced loop; prints
/// the info line and the result line. Returns the exit code.
int RunInProcess(const Args& args, const std::vector<Template>& mix,
                 const std::vector<Op>& ops, const RefHashes& refs,
                 InProcessSetup setup);

}  // namespace e2e

#endif  // QOF_E2EBENCH_INPROC_H_
