#include "qof/fuzz/case.h"

#include <algorithm>

#include "qof/datagen/bibtex_gen.h"
#include "qof/datagen/log_gen.h"
#include "qof/datagen/mail_gen.h"
#include "qof/datagen/outline_gen.h"
#include "qof/datagen/schemas.h"
#include "qof/schema/schema_text.h"

namespace qof {

JournalRecord JournalRecordFor(const MutationStep& step,
                               uint64_t generation) {
  JournalRecord record;
  record.generation = generation;
  record.name = step.name;
  switch (step.op) {
    case MutationStep::Op::kAdd:
      record.op = JournalOp::kAdd;
      record.text = step.text;
      break;
    case MutationStep::Op::kUpdate:
      record.op = JournalOp::kUpdate;
      record.text = step.text;
      break;
    case MutationStep::Op::kRemove:
      record.op = JournalOp::kRemove;
      break;
  }
  return record;
}

CaseDocs LiveDocsAfter(CaseDocs docs, const std::vector<MutationStep>& steps) {
  for (const MutationStep& m : steps) {
    auto it = std::find_if(docs.begin(), docs.end(), [&](const auto& doc) {
      return doc.first == m.name;
    });
    if (m.op != MutationStep::Op::kAdd && it != docs.end()) docs.erase(it);
    if (m.op != MutationStep::Op::kRemove) docs.emplace_back(m.name, m.text);
  }
  return docs;
}

const std::vector<CannedCorpus>& CannedCorpora() {
  static const std::vector<CannedCorpus> kCanned = {
      {"bibtex", "corpus.bib", "Reference", "References",
       {"Chang", "Chang", "systems"}, BibtexSchema,
       [](uint32_t seed, int entries) {
         BibtexGenOptions o;
         o.num_references = entries;
         o.seed = seed;
         o.probe_author_rate = 0.3;
         o.probe_editor_rate = 0.2;
         return GenerateBibtex(o);
       },
       [](uint32_t seed, int entries) {
         BibtexGenOptions o;
         o.num_references = entries;
         o.seed = seed;
         o.probe_author_rate = 0.3;
         return GenerateBibtex(o);
       }},
      {"mail", "corpus.mbox", "Message", "Messages",
       {"Chang", "Dana", "meeting"}, MailSchema,
       [](uint32_t seed, int entries) {
         MailGenOptions o;
         o.num_messages = entries;
         o.seed = seed;
         o.probe_sender_rate = 0.3;
         o.probe_recipient_rate = 0.3;
         return GenerateMailbox(o);
       },
       [](uint32_t seed, int entries) {
         MailGenOptions o;
         o.num_messages = entries;
         o.seed = seed;
         o.probe_sender_rate = 0.3;
         return GenerateMailbox(o);
       }},
      {"log", "corpus.log", "Entry", "Entrys", {"ERROR", "INFO", "session"},
       LogSchema,
       [](uint32_t seed, int entries) {
         LogGenOptions o;
         o.num_entries = entries * 4;
         o.seed = seed;
         o.error_rate = 0.2;
         o.num_sessions = 4;
         return GenerateLog(o);
       },
       [](uint32_t seed, int entries) {
         LogGenOptions o;
         o.num_entries = entries * 2;
         o.seed = seed;
         o.error_rate = 0.2;
         o.num_sessions = 2;
         return GenerateLog(o);
       }},
      {"outline", "corpus.outline", "Section", "Sections",
       {"Optimization", "Optimization", "prose"}, OutlineSchema,
       [](uint32_t seed, int entries) {
         OutlineGenOptions o;
         o.num_top_sections = entries;
         o.seed = seed;
         o.max_depth = 3;
         o.probe_title_rate = 0.25;
         return GenerateOutline(o);
       },
       [](uint32_t seed, int entries) {
         OutlineGenOptions o;
         o.num_top_sections = entries;
         o.seed = seed;
         o.max_depth = 2;
         o.probe_title_rate = 0.25;
         return GenerateOutline(o);
       }},
  };
  return kCanned;
}

const CannedCorpus* FindCannedCorpus(std::string_view kind) {
  for (const CannedCorpus& canned : CannedCorpora()) {
    if (kind == canned.kind) return &canned;
  }
  return nullptr;
}

Result<StructuringSchema> MaterializeSchema(const ConcreteCase& c) {
  if (c.canned.empty()) return ParseSchemaText(c.schema_text);
  const CannedCorpus* canned = FindCannedCorpus(c.canned);
  if (canned == nullptr) {
    return Status::InvalidArgument("unknown canned corpus: " + c.canned);
  }
  return canned->schema();
}

Result<CaseDocs> MaterializeDocs(const ConcreteCase& c) {
  if (c.canned.empty()) return c.docs;
  const CannedCorpus* canned = FindCannedCorpus(c.canned);
  if (canned == nullptr) {
    return Status::InvalidArgument("unknown canned corpus: " + c.canned);
  }
  return CaseDocs{{canned->doc_name,
                   canned->corpus(c.canned_seed,
                                  std::max(1, c.canned_entries))}};
}

ConcreteCase Concretize(const FuzzCase& fuzz_case) {
  ConcreteCase out;
  out.canned = fuzz_case.canned;
  out.canned_seed = fuzz_case.canned_seed;
  out.canned_entries = fuzz_case.canned_entries;
  if (fuzz_case.canned.empty()) {
    out.schema_text = fuzz_case.schema.Render();
    out.docs = RenderDocs(fuzz_case.schema, fuzz_case.corpus);
  }
  out.fql = fuzz_case.raw_fql.empty() ? fuzz_case.query.Render()
                                      : fuzz_case.raw_fql;
  out.expect_valid = fuzz_case.expect_valid;
  out.subsets = fuzz_case.subsets;
  out.mutations = fuzz_case.mutations;
  return out;
}

}  // namespace qof
