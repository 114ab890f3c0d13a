// Input generator: materializes one workload's inputs from its seed, in a
// process of its own, so the measured process runs only the workload.
//
//   perfbench_gen align_cold|realign_chain|serve_mixed SEED OUT_DIR
//
// OUT_DIR/inputs/ receives what `synth` makes (N-Triples, delta files, gold
// tables, the serve request mix); OUT_DIR/derived/ receives what the
// program computes from them before a run (ontology snapshots, the
// converged base result).
//
// The datasets are the documented profiles at synth seed 42 (kProfileSeed).
// The synth seed is not the run seed: the profiles draw hub degrees from
// heavy-tailed distributions, so the cost of aligning one synth seed's pair
// differs from another's by more than a run-to-run regression bound (the
// pairs of synth seeds 1 and 5 differ by 12% in CPU time). The run seed
// instead renames every instance IRI through a seeded bijection (so each
// seed's files differ throughout while the work and the quality stay those
// of the documented dataset), partitions realign_chain's held-back facts
// into its deltas, and draws serve_mixed's request mix.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common.h"
#include "paris/api/session.h"
#include "paris/ontology/export.h"
#include "paris/ontology/vocab.h"
#include "paris/synth/profiles.h"
#include "paris/util/logging.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using paris::api::Session;

constexpr uint64_t kProfileSeed = 42;
// realign_chain: the held-back share of the left side's facts, and the
// number of deltas it is cut into (≈0.5% of the left side each).
constexpr double kDeltaFraction = 0.05;
constexpr int kNumDeltas = 10;
// serve_mixed: requests in the mix file (the client cycles through it) and
// the Zipf exponent of key popularity.
constexpr size_t kNumRequests = 600000;
constexpr double kZipfExponent = 0.9;

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// The seeded bijection on instance IRIs: "<ns>:<name>" becomes
// "<ns>:e<hex>", with the hex digits a hash of the run seed and the name.
// Classes, relations and literals keep their names.
class Renamer {
 public:
  Renamer(const paris::synth::OntologyPair& pair, uint64_t seed) {
    for (const auto* onto : {pair.left.get(), pair.right.get()}) {
      for (const auto id : onto->instances()) {
        const std::string name = onto->TermName(id);
        uint64_t hash = SplitMix64(seed);
        for (const unsigned char c : name) hash = SplitMix64(hash ^ c);
        char digits[24];
        std::snprintf(digits, sizeof(digits), "e%016llx",
                      static_cast<unsigned long long>(hash));
        const size_t colon = name.find(':');
        names_[name] = name.substr(0, colon + 1) + digits;
      }
    }
    std::vector<std::string> renamed;
    for (const auto& [from, to] : names_) renamed.push_back(to);
    std::sort(renamed.begin(), renamed.end());
    if (std::adjacent_find(renamed.begin(), renamed.end()) != renamed.end()) {
      Die("instance renaming collided");
    }
  }

  const std::string& operator()(const std::string& name) const {
    const auto it = names_.find(name);
    return it == names_.end() ? name : it->second;
  }

  // Renames every <IRI> of an N-Triples document.
  std::string Rewrite(const std::string& text) const {
    std::string out;
    out.reserve(text.size());
    size_t pos = 0;
    for (;;) {
      const size_t open = text.find('<', pos);
      const size_t close =
          open == std::string::npos ? open : text.find('>', open + 1);
      if (close == std::string::npos) break;
      out.append(text, pos, open + 1 - pos);
      out += (*this)(text.substr(open + 1, close - open - 1));
      pos = close;
    }
    out.append(text, pos, std::string::npos);
    return out;
  }

 private:
  std::unordered_map<std::string, std::string> names_;
};

void WriteText(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out.flush()) Die("cannot write " + path);
}

std::string Export(const paris::ontology::Ontology& onto) {
  std::ostringstream out;
  paris::ontology::ExportToNTriples(onto, out);
  return out.str();
}

// Gold tables by name: instance pairs; (side, positive sub relation,
// signed super relation) containments; (side, sub class, super class)
// containments. Side is L when the sub item lives in the left ontology.
void WriteGold(const paris::synth::OntologyPair& pair, const Renamer& rename,
               const std::string& dir) {
  const auto& left = *pair.left;
  const auto& right = *pair.right;
  std::map<std::string, std::string> instances;
  for (const auto& [l, r] : pair.gold.left_to_right()) {
    instances.emplace(rename(left.TermName(l)), rename(right.TermName(r)));
  }
  std::ostringstream out;
  out << "# gold instance pairs: left\tright\n";
  for (const auto& [l, r] : instances) out << l << "\t" << r << "\n";
  WriteText(dir + "/gold_instances.tsv", out.str());

  std::ostringstream rels;
  std::ostringstream classes;
  rels << "# gold relation containments: side\tsub\tsuper\n";
  classes << "# gold class containments: side\tsub\tsuper\n";
  for (const bool sub_is_left : {true, false}) {
    const auto& sub_onto = sub_is_left ? left : right;
    const auto& super_onto = sub_is_left ? right : left;
    const char* side = sub_is_left ? "L" : "R";
    const auto num_super = static_cast<paris::rdf::RelId>(super_onto.num_relations());
    for (paris::rdf::RelId sub = 1;
         sub <= static_cast<paris::rdf::RelId>(sub_onto.num_relations()); ++sub) {
      for (paris::rdf::RelId super = -num_super; super <= num_super; ++super) {
        if (super == 0) continue;
        if (pair.gold.RelationContained(sub_is_left, sub, super)) {
          rels << side << "\t" << sub_onto.RelationName(sub) << "\t"
               << super_onto.RelationName(super) << "\n";
        }
      }
    }
    for (const paris::rdf::TermId sub : sub_onto.classes()) {
      for (const paris::rdf::TermId super : super_onto.classes()) {
        if (pair.gold.ClassContained(sub_is_left, sub, super)) {
          classes << side << "\t" << sub_onto.TermName(sub) << "\t"
                  << super_onto.TermName(super) << "\n";
        }
      }
    }
  }
  WriteText(dir + "/gold_relations.tsv", rels.str());
  WriteText(dir + "/gold_classes.tsv", classes.str());
}

// The split rule of `api::DatasetSpec::delta_fraction`: every k-th regular
// fact of each relation (k = 1/fraction, the first fact of every relation
// stays) moves to the delta; schema statements stay in the base. The held
// back lines are then shuffled with the run seed and cut into `kNumDeltas`
// files.
void SplitLeft(const std::string& text, uint64_t seed,
               const std::string& inputs) {
  const size_t stride = static_cast<size_t>(std::llround(1.0 / kDeltaFraction));
  std::string base;
  std::vector<std::string_view> held;
  std::unordered_map<std::string, size_t> seen;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    const std::string_view line(text.data() + pos, end - pos);
    pos = end + 1;
    if (line.empty()) continue;
    bool to_delta = false;
    const size_t pred_begin = line.find("> <");
    if (line.front() == '<' && pred_begin != std::string_view::npos) {
      const size_t pred_end = line.find('>', pred_begin + 3);
      const std::string_view pred =
          line.substr(pred_begin + 3, pred_end - (pred_begin + 3));
      if (pred_end != std::string_view::npos &&
          !paris::ontology::IsTypePredicate(pred) &&
          !paris::ontology::IsSubClassOfPredicate(pred)) {
        size_t& count = seen[std::string(pred)];
        to_delta = count % stride == stride - 1;
        ++count;
      }
    }
    if (to_delta) {
      held.push_back(line);
    } else {
      base.append(line).push_back('\n');
    }
  }
  WriteText(inputs + "/left_base.nt", base);
  std::mt19937_64 rng(seed);
  for (size_t i = held.size(); i > 1; --i) std::swap(held[i - 1], held[rng() % i]);
  for (int d = 0; d < kNumDeltas; ++d) {
    const size_t from = held.size() * d / kNumDeltas;
    const size_t to = held.size() * (d + 1) / kNumDeltas;
    std::string delta;
    for (size_t i = from; i < to; ++i) delta.append(held[i]).push_back('\n');
    char name[32];
    std::snprintf(name, sizeof(name), "/delta_%02d.nt", d);
    WriteText(inputs + name, delta);
  }
}

// Loads the pair from files, writes its ontology snapshot, then aligns a
// session loaded from that snapshot (so the result's term ids are the ones
// every snapshot-loading consumer sees) and saves the converged result.
void DeriveSnapshotAndResult(const std::string& left, const std::string& right,
                             size_t threads, const std::string& derived) {
  const std::string snapshot = derived + "/pair.snap";
  {
    Session session(Session::Options().set_threads(threads));
    OrDie(session.LoadFromFiles(left, right), "load " + left);
    OrDie(session.SaveSnapshot(snapshot), "save " + snapshot);
  }
  Session session(Session::Options().set_threads(threads));
  OrDie(session.LoadFromSnapshot(snapshot), "load " + snapshot);
  OrDie(session.Align(), "align the base pair");
  OrDie(session.SaveResult(derived + "/base.result"), "save the base result");
}

// Zipf(s) over ranks 0..n-1 by inverse CDF.
class Zipf {
 public:
  explicit Zipf(size_t n) : cdf_(n) {
    double sum = 0.0;
    for (size_t k = 0; k < n; ++k) {
      sum += 1.0 / std::pow(static_cast<double>(k + 1), kZipfExponent);
      cdf_[k] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  size_t operator()(double u) const {
    return std::min<size_t>(
        cdf_.size() - 1,
        static_cast<size_t>(std::upper_bound(cdf_.begin(), cdf_.end(), u) -
                            cdf_.begin()));
  }

 private:
  std::vector<double> cdf_;
};

// The serve traffic. No client trace of parisd exists, so the shares are a
// choice made here: the LOOKUP kinds keep the 10 : 1 : 1 proportion of
// entity, relation and class requests in bench/bench_service.cc's
// RequestMix, and each of the two QUERY masks the traced run times (subject
// bound; subject and relation bound) gets the weight of one non-entity
// kind. Every key is drawn Zipf-skewed over a fixed shuffle of its universe
// (the entities, classes or signed relations of both sides).
constexpr int kEntityWeight = 10;
constexpr int kKindWeights = kEntityWeight + 4;

void WriteRequestMix(const std::string& snapshot, uint64_t seed,
                     const std::string& path) {
  Session session;
  OrDie(session.LoadFromSnapshot(snapshot), "load " + snapshot);
  struct Key {
    const paris::ontology::Ontology* onto;
    const char* side;
    paris::rdf::TermId id;
  };
  std::vector<Key> entities, classes;
  std::vector<std::string> relations;
  for (const bool is_left : {true, false}) {
    const auto& onto = is_left ? session.left() : session.right();
    const char* side = is_left ? "left" : "right";
    for (const auto id : onto.instances()) entities.push_back({&onto, side, id});
    for (const auto id : onto.classes()) classes.push_back({&onto, side, id});
    for (paris::rdf::RelId r = 1;
         r <= static_cast<paris::rdf::RelId>(onto.num_relations()); ++r) {
      relations.push_back(std::string(side) + " " + onto.RelationName(r));
      relations.push_back(std::string(side) + " -" + onto.RelationName(r));
    }
  }
  // Popularity ranks come from the profile seed, so every run seed has
  // the same hot keys (with a 0.9 exponent the top ten keys draw a sixth of
  // the traffic, and their reply sizes would otherwise move the serve
  // throughput from seed to seed); the run seed draws the sequence.
  std::mt19937_64 ranking(kProfileSeed);
  const auto shuffle = [&](auto& keys) {
    for (size_t i = keys.size(); i > 1; --i) {
      std::swap(keys[i - 1], keys[ranking() % i]);
    }
  };
  shuffle(entities);
  shuffle(classes);
  shuffle(relations);
  std::mt19937_64 rng(seed ^ 0x5e77e5ull);
  const auto uniform = [&rng] {
    return static_cast<double>(rng() >> 11) * 0x1.0p-53;
  };
  const Zipf entity_rank(entities.size());
  const Zipf class_rank(classes.size());
  const Zipf relation_rank(relations.size());

  std::string out;
  for (size_t i = 0; i < kNumRequests; ++i) {
    const int kind = static_cast<int>(rng() % kKindWeights) - kEntityWeight;
    if (kind < 0) {
      const Key& key = entities[entity_rank(uniform())];
      out += "LOOKUP entity " + std::string(key.side) + " " +
             key.onto->TermName(key.id);
    } else if (kind == 0) {
      out += "LOOKUP relation " + relations[relation_rank(uniform())];
    } else if (kind == 1) {
      const Key& key = classes[class_rank(uniform())];
      out += "LOOKUP class " + std::string(key.side) + " " +
             key.onto->TermName(key.id);
    } else {
      const Key& key = entities[entity_rank(uniform())];
      std::string rel = "?";
      if (kind == 3) {
        for (const auto& fact : key.onto->store().FactsAbout(key.id)) {
          if (fact.rel > 0) {
            rel = key.onto->RelationName(fact.rel);
            break;
          }
        }
      }
      out += "QUERY " + std::string(key.side) + " " +
             key.onto->TermName(key.id) + " " + rel + " ?";
    }
    out += "\n";
  }
  WriteText(path, out);
}

int Main(int argc, char** argv) {
  if (argc != 4) {
    Die("usage: perfbench_gen align_cold|realign_chain|serve_mixed SEED DIR");
  }
  paris::util::SetLogLevel(paris::util::LogLevel::kWarning);
  const std::string workload = argv[1];
  const uint64_t seed = std::stoull(argv[2]);
  const std::string inputs = std::string(argv[3]) + "/inputs";
  const std::string derived = std::string(argv[3]) + "/derived";
  fs::create_directories(inputs);
  fs::create_directories(derived);

  paris::synth::ProfileOptions options;
  options.seed = kProfileSeed;
  if (workload == "align_cold" || workload == "serve_mixed") {
    auto pair = OrDie(paris::synth::MakeYagoDbpediaPair(options),
                      "generate yago-dbpedia");
    const Renamer rename(pair, seed);
    WriteText(inputs + "/left.nt", rename.Rewrite(Export(*pair.left)));
    WriteText(inputs + "/right.nt", rename.Rewrite(Export(*pair.right)));
    WriteGold(pair, rename, inputs);
    if (workload == "serve_mixed") {
      DeriveSnapshotAndResult(inputs + "/left.nt", inputs + "/right.nt", 2,
                              derived);
      WriteRequestMix(derived + "/pair.snap", seed, inputs + "/requests.txt");
    }
  } else if (workload == "realign_chain") {
    options.scale = 64.0;
    auto pair = OrDie(paris::synth::MakeOaeiPersonPair(options),
                      "generate person");
    const Renamer rename(pair, seed);
    const std::string left = rename.Rewrite(Export(*pair.left));
    WriteText(inputs + "/left_full.nt", left);
    SplitLeft(left, seed, inputs);
    WriteText(inputs + "/right.nt", rename.Rewrite(Export(*pair.right)));
    WriteGold(pair, rename, inputs);
    DeriveSnapshotAndResult(inputs + "/left_base.nt", inputs + "/right.nt", 1,
                            derived);
  } else {
    Die("unknown workload " + workload);
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
