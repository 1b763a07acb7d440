// The compressed-model repository and Algorithm 1 (paper section IV-A):
// multi-granularity k-means over scene embeddings, one compressed detector
// trained per accepted cluster until the repository holds n models.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cluster/kmeans.hpp"
#include "core/scene_encoder.hpp"
#include "core/semantic_scenes.hpp"
#include "detect/detector_trainer.hpp"
#include "detect/grid_detector.hpp"
#include "util/check.hpp"

namespace anole::core {

/// One scene-specific compressed model (an M_i with its Gamma_i).
struct SceneModel {
  std::unique_ptr<detect::GridDetector> detector;
  /// Dense scene classes whose frames formed the training set Gamma_i.
  std::vector<std::size_t> scene_classes;
  /// Training frames of Gamma_i (borrowed from the corpus).
  std::vector<const world::Frame*> training_frames;
  /// Held-out frames of the same scenes. ASS samples these: evaluating a
  /// model on its own training frames would let an overfit specialist
  /// dominate the allocation labels.
  std::vector<const world::Frame*> validation_frames;
  /// Validation F1 achieved when the model was accepted.
  double validation_f1 = 0.0;
  /// Which clustering granularity produced it.
  std::size_t cluster_k = 0;
  std::string name;
};

class ModelRepository {
 public:
  std::size_t size() const { return models_.size(); }
  bool empty() const { return models_.empty(); }

  SceneModel& model(std::size_t i) {
    ANOLE_CHECK_RANGE(i, models_.size(), "ModelRepository::model");
    return models_[i];
  }
  const SceneModel& model(std::size_t i) const {
    ANOLE_CHECK_RANGE(i, models_.size(), "ModelRepository::model");
    return models_[i];
  }

  detect::GridDetector& detector(std::size_t i) {
    ANOLE_CHECK_RANGE(i, models_.size(), "ModelRepository::detector");
    ANOLE_CHECK_NOTNULL(models_[i].detector,
                        "ModelRepository::detector: model ", i,
                        " has no detector");
    return *models_[i].detector;
  }
  const detect::GridDetector& detector(std::size_t i) const {
    ANOLE_CHECK_RANGE(i, models_.size(), "ModelRepository::detector");
    ANOLE_CHECK_NOTNULL(models_[i].detector,
                        "ModelRepository::detector: model ", i,
                        " has no detector");
    return *models_[i].detector;
  }

  void add(SceneModel model) {
    ANOLE_CHECK_NOTNULL(model.detector,
                        "ModelRepository::add: model has no detector");
    models_.push_back(std::move(model));
  }

  /// |Gamma_i| for every model, in order (input to ASS).
  std::vector<std::size_t> training_set_sizes() const;

 private:
  std::vector<SceneModel> models_;
};

struct RepositoryConfig {
  /// Preset number n of compressed models to train (paper: 19).
  std::size_t target_models = 19;
  /// Validation-F1 acceptance threshold delta of Algorithm 1. Coarse
  /// clusters that mix incompatible scenes validate poorly and are
  /// rejected, pushing the repository toward finer granularities.
  double acceptance_threshold = 0.35;
  /// After the multi-granularity sweep, train one dedicated specialist for
  /// every scene class no accepted model covers (the paper's remedy for
  /// case 3 of the problem formulation: samples outside every Psi_i).
  bool backfill_uncovered_scenes = true;
  /// Clustering granularities run k = 2 .. max_cluster_k (clamped to the
  /// number of semantic scene groups).
  std::size_t max_cluster_k = 16;
  /// Clusters with fewer training/validation frames than this are skipped.
  std::size_t min_training_frames = 40;
  std::size_t min_validation_frames = 10;
  detect::GridDetectorConfig detector_config =
      detect::GridDetectorConfig::compressed();
  detect::DetectorTrainConfig detector_train;
  bool verbose = false;
};

/// Algorithm 1. `train_frames` / `val_frames` are the seen-clip train and
/// validation splits; embeddings come from the (already trained) encoder.
ModelRepository train_model_repository(
    SceneEncoder& encoder, const SemanticSceneIndex& scene_index,
    const std::vector<const world::Frame*>& train_frames,
    const std::vector<const world::Frame*>& val_frames,
    const RepositoryConfig& config, Rng& rng);

}  // namespace anole::core
