// Table 5: YAGO ↔ IMDb over iterations 1-4, plus the rdfs:label baseline
// comparison of §6.4 (the baseline reaches high precision but loses recall
// on the noisy IMDb labels; PARIS recovers through structure).
#include "paris/baseline/label_match.h"
#include "bench/bench_common.h"

namespace paris::bench {
namespace {

void Main() {
  util::SetLogLevel(util::LogLevel::kWarning);
  PrintHeader("Table 5 — matching yago and IMDb over iterations 1-4",
              "Suchanek et al., PVLDB 5(3), 2011, Table 5 + §6.4 baseline");
  std::printf(
      "Paper reference (instances): 84/75/79 → 94/89/91 → 94/90/92 → "
      "94/90/92; label baseline 97/70 (F 82); relations at iter 4: "
      "y⊆IMDb 100%%prec/80%%rec, IMDb⊆y 100%%/80%%\n");

  auto pair = synth::MakeYagoImdbPair();
  if (!pair.ok()) {
    std::printf("profile failed: %s\n", pair.status().ToString().c_str());
    return;
  }
  const core::AlignmentResult result =
      RunParis(*pair, 4, /*force_all_iterations=*/true);

  eval::TablePrinter table({"Iter", "Change", "Time", "Prec", "Rec", "F",
                            "Rel y⊆IMDb (prec/rec)",
                            "Rel IMDb⊆y (prec/rec)"});
  for (const auto& it : result.iterations) {
    const auto pr = eval::EvaluateInstances(it.instances, pair->gold);
    const auto rel_lr =
        eval::EvaluateRelations(it.relations, pair->gold, true, 0.3);
    const auto rel_rl =
        eval::EvaluateRelations(it.relations, pair->gold, false, 0.3);
    table.AddRow(
        {std::to_string(it.index),
         it.index == 1 ? "-" : eval::TablePrinter::Pct1(it.change_fraction),
         eval::TablePrinter::Fixed(it.seconds_instances + it.seconds_relations,
                                   2) +
             "s",
         eval::TablePrinter::Pct(pr.precision()),
         eval::TablePrinter::Pct(pr.recall()),
         eval::TablePrinter::Pct(pr.f1()),
         eval::TablePrinter::Pct(rel_lr.precision()) + "/" +
             eval::TablePrinter::Pct(rel_lr.recall()),
         eval::TablePrinter::Pct(rel_rl.precision()) + "/" +
             eval::TablePrinter::Pct(rel_rl.recall())});
  }
  std::printf("%s", table.ToString().c_str());

  // The rdfs:label baseline (IMDb labels its entities via name/title).
  baseline::LabelMatchConfig label_config;
  label_config.right_label_relations = {"imdb:name", "imdb:title"};
  const auto baseline_pr = eval::EvaluateInstances(
      baseline::AlignByLabel(*pair->left, *pair->right, label_config),
      pair->gold);
  const auto paris_pr = eval::EvaluateInstances(result.instances, pair->gold);
  eval::TablePrinter cmp({"System", "Prec", "Rec", "F"});
  std::vector<std::string> row{"paris"};
  AppendPrf(&row, paris_pr);
  cmp.AddRow(std::move(row));
  row = {"rdfs:label baseline"};
  AppendPrf(&row, baseline_pr);
  cmp.AddRow(std::move(row));
  std::printf("\n%s", cmp.ToString().c_str());

  // Classes, both directions (the paper's asymmetric class result: mapping
  // IMDb's handful of classes into yago works, the reverse direction drags
  // in "People from X ⊆ actor"-style assignments).
  const auto cls_lr =
      eval::EvaluateClassEntries(result.classes, pair->gold, true, 0.4);
  const auto cls_rl =
      eval::EvaluateClassEntries(result.classes, pair->gold, false, 0.4);
  std::printf(
      "\nClasses (threshold 0.4): y⊆IMDb %zu assignments @ %s precision; "
      "IMDb⊆y %zu @ %s\n",
      cls_lr.entries, eval::TablePrinter::Pct(cls_lr.precision()).c_str(),
      cls_rl.entries, eval::TablePrinter::Pct(cls_rl.precision()).c_str());
}

}  // namespace
}  // namespace paris::bench

int main() {
  paris::bench::Main();
  return 0;
}
