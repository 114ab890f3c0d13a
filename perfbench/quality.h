// The quality oracle: scores exported alignment TSVs against the gold files
// the generator wrote, matching everything by name (§6.1 of the paper:
// only the maximal assignment counts, its probability is ignored).
#ifndef PERFBENCH_QUALITY_H_
#define PERFBENCH_QUALITY_H_

#include <cstddef>
#include <string>

namespace perfbench {

// Thresholds of the paper's evaluation: a relation counts when its maximal
// super-relation scores at least 0.3 (Table 4), a class entry when it
// scores at least 0.4 (§6.4).
inline constexpr double kRelationThreshold = 0.3;
inline constexpr double kClassThreshold = 0.4;

struct Quality {
  double instance_precision = 0.0;
  double instance_recall = 0.0;
  double relation_precision = 0.0;
  double class_precision = 0.0;
  // Data rows (header excluded) of the three exported tables.
  size_t instance_rows = 0;
  size_t relation_rows = 0;
  size_t class_rows = 0;
};

// Reads `<prefix>_{instances,relations,classes}.tsv` and the gold files
// `gold_{instances,relations,classes}.tsv` under `gold_dir`.
Quality EvaluateExport(const std::string& prefix, const std::string& gold_dir);

}  // namespace perfbench

#endif  // PERFBENCH_QUALITY_H_
