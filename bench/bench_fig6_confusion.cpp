// Fig. 6: confusion matrices of the scene profiling models on the seen
// validation split — (a) M_scene classifying semantic scenes, (b)
// M_decision's top-1 model vs the true best model per frame. Full matrices
// are printed when small; summary statistics always.
#include <algorithm>

#include "bench/common.hpp"
#include "eval/confusion.hpp"
#include "nn/loss.hpp"
#include "util/stats.hpp"

int main() {
  using namespace anole;
  bench::print_banner("Figure 6", "confusion of M_scene and M_decision");

  auto stack = bench::train_standard_stack();
  const auto val_frames =
      stack.world.frames_with_role(world::SplitRole::kValidation);
  const world::FrameFeaturizer featurizer;

  // --- (a) M_scene on semantic scene classes ---
  eval::ConfusionMatrix scene_cm(stack.system.scene_index.class_count());
  std::vector<const world::Frame*> usable;
  for (const world::Frame* frame : val_frames) {
    if (stack.system.scene_index.class_of(*frame)) usable.push_back(frame);
  }
  const Tensor logits = stack.system.encoder->classify(
      featurizer.featurize_batch(usable));
  const auto predictions = nn::argmax_rows(logits);
  for (std::size_t i = 0; i < usable.size(); ++i) {
    scene_cm.add(*stack.system.scene_index.class_of(*usable[i]),
                 predictions[i]);
  }
  std::printf("(a) M_scene: %zu scenes, %zu validation frames\n",
              scene_cm.classes(), usable.size());
  std::printf("    accuracy %.3f, balanced accuracy %.3f\n",
              scene_cm.accuracy(), scene_cm.balanced_accuracy());
  const auto recalls = scene_cm.per_class_recall();
  std::printf("    per-scene recall: min %.2f, median %.2f, max %.2f\n",
              min_value(recalls), median(recalls), max_value(recalls));

  // --- (b) M_decision top-1 vs true best model ---
  const std::size_t n = stack.system.repository.size();
  eval::ConfusionMatrix decision_cm(n);
  std::size_t regret_free = 0;
  for (const world::Frame* frame : usable) {
    std::vector<double> scores(n, 0.0);
    for (std::size_t m = 0; m < n; ++m) {
      scores[m] = detect::match_detections(
                      stack.system.repository.detector(m).infer(*frame),
                      frame->objects)
                      .f1();
    }
    const std::size_t best = static_cast<std::size_t>(
        std::max_element(scores.begin(), scores.end()) - scores.begin());
    const auto ranking =
        stack.system.decision->rank(featurizer.featurize(*frame));
    decision_cm.add(best, ranking[0]);
    // "Interchangeable" pick: the chosen model is within 90% of the best.
    if (scores[ranking[0]] >= 0.9 * scores[best]) ++regret_free;
  }
  std::printf("\n(b) M_decision: %zu models\n", n);
  std::printf("    exact top-1 agreement with the per-frame best: %.3f\n",
              decision_cm.accuracy());
  std::printf("    picks within 90%% of the best model's F1: %.3f\n",
              static_cast<double>(regret_free) /
                  static_cast<double>(usable.size()));
  std::printf("%s", decision_cm.to_table().c_str());
  std::printf("\npaper shape: strong diagonals; decision mistakes cluster "
              "on near-interchangeable models.\n");
  return 0;
}
