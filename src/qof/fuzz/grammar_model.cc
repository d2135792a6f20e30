#include "qof/fuzz/grammar_model.h"

#include <algorithm>
#include <cmath>
#include <set>

namespace qof {
namespace {

/// Cumulative integer weights for a rank-Zipf distribution over `n`
/// ranks: weight(r) ∝ 1/r^s, scaled to 64-bit fixed point so sampling
/// is a pure-integer upper_bound on FuzzRng output (the only floating
/// point is the one-time table build, whose rounding cannot flip a
/// sample across platforms at these magnitudes).
std::vector<uint64_t> ZipfCumulative(size_t n, double s) {
  std::vector<uint64_t> cum(n);
  uint64_t total = 0;
  for (size_t r = 0; r < n; ++r) {
    double w = std::pow(static_cast<double>(r + 1), -s);
    uint64_t scaled =
        std::max<uint64_t>(1, static_cast<uint64_t>(w * (1ull << 32)));
    total += scaled;
    cum[r] = total;
  }
  return cum;
}

size_t ZipfRank(const std::vector<uint64_t>& cum, FuzzRng& rng) {
  uint64_t u = rng.Next() % cum.back();
  return static_cast<size_t>(
      std::upper_bound(cum.begin(), cum.end(), u) - cum.begin());
}

const std::vector<std::string>& FieldNamePool() {
  static const std::vector<std::string> kPool = {
      "Alpha", "Beta", "Gamma", "Delta", "Epsi", "Zeta"};
  return kPool;
}

const std::vector<std::string>& SubNamePool() {
  static const std::vector<std::string> kPool = {"ItemA", "ItemB", "ItemC"};
  return kPool;
}

std::string FieldOpen(size_t index) {
  return "f" + std::to_string(index + 1) + "<";
}

/// The token rule body for a leaf, given the stop characters the leaf
/// runs up against in its grammatical context.
std::string LeafBody(LeafKind kind, const std::string& stops) {
  switch (kind) {
    case LeafKind::kWord:
      return "word";
    case LeafKind::kNumber:
      return "number => int";
    case LeafKind::kUntil:
      return "until(" + stops + ")";
  }
  return "word";
}

LeafKind PickLeaf(FuzzRng& rng, double number_rate) {
  if (rng.Chance(number_rate)) return LeafKind::kNumber;
  return rng.Chance(0.3) ? LeafKind::kWord : LeafKind::kUntil;
}

/// Word-selection state threaded through a render: the probe bias plus,
/// when the corpus asks for skew, the Zipf table over BenchVocab().
struct ContentCtx {
  double probe_rate = 0.3;
  std::vector<uint64_t> zipf;  // empty = uniform over FuzzVocab()

  explicit ContentCtx(const CorpusModel& corpus)
      : probe_rate(corpus.probe_rate) {
    if (corpus.zipf_s > 0.0) {
      zipf = ZipfCumulative(BenchVocab().size(), corpus.zipf_s);
    }
  }
};

/// Leaf content honoring the leaf kind's lexical constraints. `stops`
/// never appear: content words are alphanumeric and space-separated.
std::string LeafContent(LeafKind kind, FuzzRng& rng,
                        const ContentCtx& ctx) {
  if (kind == LeafKind::kNumber) return std::to_string(rng.Range(1, 40));
  auto word = [&]() -> std::string {
    if (rng.Chance(ctx.probe_rate)) return kFuzzProbeWord;
    if (!ctx.zipf.empty()) return BenchVocab()[ZipfRank(ctx.zipf, rng)];
    return rng.Pick(FuzzVocab());
  };
  if (kind == LeafKind::kWord) return word();
  std::string out = word();
  if (rng.Chance(0.4)) out += " " + word();
  return out;
}

void EmitObject(const SchemaModel& schema, const CorpusModel& corpus,
                const ContentCtx& ctx, FuzzRng& rng, int depth,
                std::string* out) {
  out->append("obj{");
  for (size_t i = 0; i < schema.fields.size(); ++i) {
    const FieldSpec& f = schema.fields[i];
    out->append(FieldOpen(i));
    switch (f.kind) {
      case FieldSpec::Kind::kLeaf:
        out->append(LeafContent(f.leaf, rng, ctx));
        break;
      case FieldSpec::Kind::kSet: {
        const SubSpec& sub = schema.subs[f.sub];
        // Never empty: an until-leaf key scans for its stop without
        // regard to the collection's closer, so "()" would desync the
        // parse. One item is always unambiguous.
        int count = rng.Range(1, std::max(1, corpus.max_items));
        out->push_back('(');
        for (int k = 0; k < count; ++k) {
          if (k > 0) out->push_back(';');
          if (sub.tuple) {
            out->append(LeafContent(sub.key_leaf, rng, ctx));
            out->push_back('=');
            out->append(LeafContent(sub.val_leaf, rng, ctx));
          } else {
            out->append(LeafContent(sub.leaf, rng, ctx));
          }
        }
        out->push_back(')');
        break;
      }
      case FieldSpec::Kind::kRecurse: {
        out->push_back('{');
        int count = depth < corpus.max_depth ? rng.Range(0, 2) : 0;
        for (int k = 0; k < count; ++k) {
          if (k > 0) out->push_back(' ');
          EmitObject(schema, corpus, ctx, rng, depth + 1, out);
        }
        out->push_back('}');
        break;
      }
    }
    out->push_back('>');
  }
  out->push_back('}');
}

}  // namespace

const std::vector<std::string>& FuzzVocab() {
  static const std::vector<std::string> kVocab = {
      "apple", "baker", "cedar",   "delta", "ember",
      "falcon", "grove", "harbor", "iris",  "juniper"};
  return kVocab;
}

std::string SchemaModel::Render() const {
  std::string out = "schema Fuzz root File view Obj;\n";
  out += "File ::= (Obj)* => collect set;\n";

  std::string body;
  std::string field_list;
  for (size_t i = 0; i < fields.size(); ++i) {
    body += "\"" + FieldOpen(i) + "\" " + fields[i].name + " \">\" ";
    if (i > 0) field_list += ", ";
    field_list += fields[i].name + ": $" + std::to_string(i + 1);
  }
  out += "Obj ::= \"obj{\" " + body + "\"}\" => object Obj(" + field_list +
         ");\n";

  for (const FieldSpec& f : fields) {
    switch (f.kind) {
      case FieldSpec::Kind::kLeaf:
        out += f.name + " ::= " + LeafBody(f.leaf, "\">\"") + ";\n";
        break;
      case FieldSpec::Kind::kSet:
        out += f.name + " ::= \"(\" (" + subs[f.sub].name + " / \";\")" +
               (f.min_count > 0 ? "+" : "*") + " \")\" => collect set;\n";
        break;
      case FieldSpec::Kind::kRecurse:
        out += f.name + " ::= \"{\" (Obj)* \"}\" => collect set;\n";
        break;
    }
  }

  for (int si : UsedSubs()) {
    const SubSpec& s = subs[si];
    if (s.tuple) {
      out += s.name + " ::= " + s.KeyName() + " \"=\" " + s.ValName() +
             " => tuple(" + s.KeyName() + ": $1, " + s.ValName() +
             ": $2);\n";
      out += s.KeyName() + " ::= " + LeafBody(s.key_leaf, "\"=\"") + ";\n";
      out += s.ValName() + " ::= " +
             LeafBody(s.val_leaf, "\";\", \")\"") + ";\n";
    } else {
      out += s.name + " ::= " + LeafBody(s.leaf, "\";\", \")\"") + ";\n";
    }
  }
  return out;
}

std::vector<int> SchemaModel::UsedSubs() const {
  std::set<int> used;
  for (const FieldSpec& f : fields) {
    if (f.kind == FieldSpec::Kind::kSet) used.insert(f.sub);
  }
  return std::vector<int>(used.begin(), used.end());
}

int SchemaModel::NumProductions() const {
  int n = 1 + static_cast<int>(fields.size());  // Obj + field rules
  for (int si : UsedSubs()) n += subs[si].tuple ? 3 : 1;
  return n;
}

SchemaModel GenerateSchemaModel(FuzzRng& rng,
                                const SchemaGenOptions& options) {
  SchemaModel model;

  int num_subs = 1;
  if (options.max_subs > 1 && rng.Chance(0.35)) num_subs = 2;
  for (int i = 0; i < num_subs; ++i) {
    SubSpec sub;
    sub.name = SubNamePool()[i];
    sub.tuple = rng.Chance(options.tuple_rate);
    sub.leaf = PickLeaf(rng, options.number_rate);
    sub.key_leaf = rng.Chance(0.5) ? LeafKind::kWord : LeafKind::kUntil;
    sub.val_leaf = PickLeaf(rng, options.number_rate);
    model.subs.push_back(std::move(sub));
  }

  int num_fields = rng.Range(options.min_fields, options.max_fields);
  int shared_sub = -1;  // the sub collection fields gravitate toward
  for (int i = 0; i < num_fields; ++i) {
    FieldSpec field;
    field.name = FieldNamePool()[i];
    if (rng.Chance(options.set_rate)) {
      field.kind = FieldSpec::Kind::kSet;
      if (shared_sub >= 0 && rng.Chance(options.ambiguity_rate)) {
        field.sub = shared_sub;  // two paths to one name (§6.3 shape)
      } else {
        field.sub = static_cast<int>(rng.Below(model.subs.size()));
        shared_sub = field.sub;
      }
      field.min_count = rng.Chance(0.3) ? 1 : 0;
    } else {
      field.kind = FieldSpec::Kind::kLeaf;
      field.leaf = PickLeaf(rng, options.number_rate);
    }
    model.fields.push_back(std::move(field));
  }

  if (rng.Chance(options.recursion_rate)) {
    FieldSpec nest;
    nest.kind = FieldSpec::Kind::kRecurse;
    nest.name = "Nest";
    model.fields.push_back(std::move(nest));
  }
  return model;
}

std::vector<SchemaModel> SchemaReductions(const SchemaModel& model) {
  std::vector<SchemaModel> out;
  // Drop one field (a view object needs at least one attribute).
  if (model.fields.size() > 1) {
    for (size_t i = 0; i < model.fields.size(); ++i) {
      SchemaModel reduced = model;
      reduced.fields.erase(reduced.fields.begin() + i);
      out.push_back(std::move(reduced));
    }
  }
  // Collapse a collection or recursive field to a plain leaf.
  for (size_t i = 0; i < model.fields.size(); ++i) {
    if (model.fields[i].kind == FieldSpec::Kind::kLeaf) continue;
    SchemaModel reduced = model;
    reduced.fields[i].kind = FieldSpec::Kind::kLeaf;
    reduced.fields[i].leaf = LeafKind::kUntil;
    out.push_back(std::move(reduced));
  }
  // Collapse a tuple sub to a leaf sub.
  for (size_t i = 0; i < model.subs.size(); ++i) {
    if (!model.subs[i].tuple) continue;
    SchemaModel reduced = model;
    reduced.subs[i].tuple = false;
    out.push_back(std::move(reduced));
  }
  return out;
}

CorpusModel GenerateCorpusModel(FuzzRng& rng) {
  CorpusModel corpus;
  int docs = rng.Range(1, 2);
  for (int i = 0; i < docs; ++i) {
    corpus.doc_objects.push_back(rng.Range(0, 5));
  }
  corpus.max_depth = rng.Range(1, 2);
  corpus.max_items = rng.Range(1, 3);
  corpus.probe_rate = 0.35;
  return corpus;
}

std::vector<CorpusModel> CorpusReductions(const CorpusModel& model) {
  std::vector<CorpusModel> out;
  for (size_t i = 0; i < model.doc_objects.size(); ++i) {
    CorpusModel reduced = model;
    reduced.doc_objects.erase(reduced.doc_objects.begin() + i);
    out.push_back(std::move(reduced));
  }
  for (size_t i = 0; i < model.doc_objects.size(); ++i) {
    if (model.doc_objects[i] == 0) continue;
    CorpusModel reduced = model;
    reduced.doc_objects[i] /= 2;
    out.push_back(std::move(reduced));
  }
  if (model.max_depth > 1) {
    CorpusModel reduced = model;
    reduced.max_depth -= 1;
    out.push_back(std::move(reduced));
  }
  if (model.max_items > 1) {
    CorpusModel reduced = model;
    reduced.max_items = 1;
    out.push_back(std::move(reduced));
  }
  return out;
}

std::vector<std::pair<std::string, std::string>> RenderDocs(
    const SchemaModel& schema, const CorpusModel& corpus) {
  std::vector<std::pair<std::string, std::string>> out;
  const ContentCtx ctx(corpus);
  const int64_t scale = std::max(1, corpus.scale);
  for (size_t d = 0; d < corpus.doc_objects.size(); ++d) {
    FuzzRng rng(static_cast<uint64_t>(corpus.content_seed) * 0x9e3779b9ull +
                d * 0x85ebca6bull + 1);
    std::string text;
    const int64_t objects = corpus.doc_objects[d] * scale;
    for (int64_t o = 0; o < objects; ++o) {
      if (o > 0) text.push_back('\n');
      EmitObject(schema, corpus, ctx, rng, 0, &text);
    }
    out.emplace_back("doc" + std::to_string(d) + ".txt", std::move(text));
  }
  return out;
}

const std::vector<std::string>& BenchVocab() {
  static const std::vector<std::string> kVocab = [] {
    std::vector<std::string> v = FuzzVocab();
    // 240 generated tail words: rank-assigned by a Zipf draw they fill
    // the long tail of, each alphanumeric so no delimiter collides.
    for (int i = 0; i < 240; ++i) {
      v.push_back("w" + std::string(i < 10 ? "00" : i < 100 ? "0" : "") +
                  std::to_string(i));
    }
    return v;
  }();
  return kVocab;
}

BenchCorpus MakeBenchCorpus(const BenchCorpusSpec& spec) {
  // A fixed schema exercising every structural feature the query
  // kernels dispatch on: a word leaf (equality selections), an
  // until-leaf collection shared by queries over two fields, a tuple
  // collection (multi-level chains), and a recursive field (cyclic
  // RIG). Stable across seeds — only content varies.
  SchemaModel schema;
  SubSpec items;
  items.name = "ItemA";
  items.leaf = LeafKind::kUntil;
  schema.subs.push_back(items);
  SubSpec pairs;
  pairs.name = "ItemB";
  pairs.tuple = true;
  pairs.key_leaf = LeafKind::kWord;
  pairs.val_leaf = LeafKind::kUntil;
  schema.subs.push_back(pairs);

  FieldSpec alpha;
  alpha.kind = FieldSpec::Kind::kLeaf;
  alpha.name = "Alpha";
  alpha.leaf = LeafKind::kWord;
  schema.fields.push_back(alpha);
  FieldSpec beta;
  beta.kind = FieldSpec::Kind::kSet;
  beta.name = "Beta";
  beta.sub = 0;
  beta.min_count = 1;
  schema.fields.push_back(beta);
  FieldSpec gamma;
  gamma.kind = FieldSpec::Kind::kSet;
  gamma.name = "Gamma";
  gamma.sub = 1;
  gamma.min_count = 1;
  schema.fields.push_back(gamma);
  FieldSpec nest;
  nest.kind = FieldSpec::Kind::kRecurse;
  nest.name = "Nest";
  schema.fields.push_back(nest);

  CorpusModel corpus;
  corpus.content_seed = spec.seed;
  corpus.max_depth = 1;
  corpus.max_items = 4;
  corpus.probe_rate = 0.02;  // selective: the probe word stays rare
  corpus.zipf_s = spec.zipf_s;

  BenchCorpus out;
  out.schema_text = schema.Render();
  // One rendered document per model document; grow until the byte
  // target is met. Document d's content depends only on (seed, d), so
  // a larger target extends a smaller corpus rather than reshuffling
  // it.
  for (size_t d = 0; out.total_bytes < spec.target_bytes; ++d) {
    CorpusModel one = corpus;
    one.doc_objects = {std::max(1, spec.objects_per_doc)};
    one.content_seed =
        static_cast<uint32_t>(spec.seed + 0x9e3779b9u * (d + 1));
    auto docs = RenderDocs(schema, one);
    out.total_bytes += docs[0].second.size();
    out.docs.emplace_back("bench" + std::to_string(d) + ".txt",
                          std::move(docs[0].second));
  }
  return out;
}

}  // namespace qof
