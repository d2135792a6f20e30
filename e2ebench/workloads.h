#ifndef QOF_E2EBENCH_WORKLOADS_H_
#define QOF_E2EBENCH_WORKLOADS_H_

#include "common.h"

namespace e2e {

/// Each returns the process exit code after printing its result line.
int RunGrammarDisk(const Args& args);
int RunBibtexTwophase(const Args& args);
int RunBibtexServe(const Args& args);

}  // namespace e2e

#endif  // QOF_E2EBENCH_WORKLOADS_H_
