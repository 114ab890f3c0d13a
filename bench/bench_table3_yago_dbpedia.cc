// Table 3: YAGO ↔ DBpedia over iterations 1-4 — change to previous
// iteration, wall time, instance precision/recall/F, and (at the final
// iteration) class and relation alignment in both directions. Also prints
// the §6.4 "entities with more than 10 facts" breakdown.
#include "bench/bench_common.h"

namespace paris::bench {
namespace {

void Main() {
  util::SetLogLevel(util::LogLevel::kWarning);
  PrintHeader("Table 3 — matching yago and DBpedia over iterations 1-4",
              "Suchanek et al., PVLDB 5(3), 2011, Table 3");
  std::printf(
      "Paper reference (instances): 86/69/77 → 89/73/80 → 90/73/81 → "
      "90/73/81; classes at iter 4: 137k@94%% / 149@84%%; relations: "
      "30@93%%/134@90%% → 33@100%%/151@92%%\n");

  auto pair = synth::MakeYagoDbpediaPair();
  if (!pair.ok()) {
    std::printf("profile failed: %s\n", pair.status().ToString().c_str());
    return;
  }
  const core::AlignmentResult result =
      RunParis(*pair, 4, /*force_all_iterations=*/true);

  eval::TablePrinter table({"Iter", "Change", "Time", "Prec", "Rec", "F",
                            "Rel y⊆dbp (num@prec)", "Rel dbp⊆y (num@prec)"});
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
         std::to_string(rel_lr.assigned) + "@" +
             eval::TablePrinter::Pct(rel_lr.precision()),
         std::to_string(rel_rl.assigned) + "@" +
             eval::TablePrinter::Pct(rel_rl.precision())});
  }
  std::printf("%s", table.ToString().c_str());

  // Classes at the final iteration (threshold 0.4 as in the paper).
  const auto cls_lr =
      eval::EvaluateClassEntries(result.classes, pair->gold, true, 0.4);
  const auto cls_rl =
      eval::EvaluateClassEntries(result.classes, pair->gold, false, 0.4);
  std::printf(
      "\nClasses (threshold 0.4): yago⊆DBp %zu assignments @ %s precision; "
      "DBp⊆yago %zu @ %s (class pass %.2fs)\n",
      cls_lr.entries, eval::TablePrinter::Pct(cls_lr.precision()).c_str(),
      cls_rl.entries, eval::TablePrinter::Pct(cls_rl.precision()).c_str(),
      result.seconds_classes);

  // §6.4: "If only entities with more than 10 facts in DBpedia are
  // considered, precision and recall jump to 97 % and 85 %."
  const auto& right = *pair->right;
  const auto& gold = pair->gold;
  const auto& equiv = result.instances;
  // Filter on the left entity's gold counterpart being fact-rich; for
  // predicted-but-not-gold entities use the prediction's fact count.
  auto rich = [&](rdf::TermId left) {
    auto it = gold.left_to_right().find(left);
    rdf::TermId right_term;
    if (it != gold.left_to_right().end()) {
      right_term = it->second;
    } else {
      const auto* best = equiv.MaxOfLeft(left);
      if (best == nullptr) return false;
      right_term = best->other;
    }
    return right.FactsAbout(right_term).size() > 10;
  };
  const auto rich_pr = eval::EvaluateInstancesFiltered(equiv, gold, rich);
  const auto all_pr = eval::EvaluateInstances(equiv, gold);
  std::printf(
      "\nAll entities:             prec %s rec %s F %s\n"
      "Entities with >10 facts:  prec %s rec %s F %s   (paper: 97%%/85%%)\n",
      eval::TablePrinter::Pct(all_pr.precision()).c_str(),
      eval::TablePrinter::Pct(all_pr.recall()).c_str(),
      eval::TablePrinter::Pct(all_pr.f1()).c_str(),
      eval::TablePrinter::Pct(rich_pr.precision()).c_str(),
      eval::TablePrinter::Pct(rich_pr.recall()).c_str(),
      eval::TablePrinter::Pct(rich_pr.f1()).c_str());
}

}  // namespace
}  // namespace paris::bench

int main() {
  paris::bench::Main();
  return 0;
}
