#ifndef QOF_FUZZ_REPRO_H_
#define QOF_FUZZ_REPRO_H_

#include <string>
#include <string_view>
#include <vector>

#include "qof/fuzz/case.h"
#include "qof/fuzz/oracle.h"
#include "qof/util/result.h"

namespace qof {

/// A self-contained failure reproduction: the concrete case plus the
/// oracle configuration that exposed it.
struct ReproFile {
  ConcreteCase concrete_case;
  InjectedBug bug = InjectedBug::kNone;
  /// Fault-injection directive: when non-empty the replay runs the
  /// oracle's fault leg with this site/hit instead of the differential
  /// checks (serialized as an `inject-fault:` line).
  std::string fault_site;
  uint64_t fault_hit = 1;
  uint64_t seed = 0;
};

/// Serializes a repro in the `qof-fuzz-repro v1` line format:
///
///   qof-fuzz-repro v1
///   seed: 42
///   inject: none | relax-direct | ...  -- an InjectedBugs() name
///   inject-fault: journal.append 2      -- fault-leg cases only
///   expect-valid: 1
///   canned: bibtex 7 4                  -- canned cases only
///   subset: Obj Alpha                   -- one line per index subset
///   query: SELECT r FROM Objs r
///   schema <<END                        -- random cases only
///   ...schema text...
///   END
///   doc corpus-0.txt <<END
///   ...document text...
///   END
///   mutate add extra-0.txt <<END      -- mutation steps,
///   ...document text...                  in application order
///   END
///   mutate remove doc0.txt
///
/// Heredoc bodies are the lines between the markers joined with '\n';
/// the writer always puts one '\n' between body and END, so a body with
/// its own trailing newline shows as an empty line before END and every
/// body round-trips byte-identically.
std::string WriteRepro(const ReproFile& repro);

Result<ReproFile> ParseRepro(std::string_view text);

/// Parses a repro and runs it through the oracle.
Result<OracleOutcome> ReplayRepro(std::string_view text, int workers);

/// One injected bug and its `--inject` / repro name.
struct InjectedBugEntry {
  InjectedBug bug;
  const char* name;
};

/// Every InjectedBug value with its name, in enum order; the five
/// production-resident bugs reuse their planted_bug:: names.
const std::vector<InjectedBugEntry>& InjectedBugs();

std::string InjectedBugName(InjectedBug bug);
Result<InjectedBug> InjectedBugFromName(std::string_view name);

}  // namespace qof

#endif  // QOF_FUZZ_REPRO_H_
