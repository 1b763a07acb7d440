#include "baselines/methods.hpp"

#include "util/check.hpp"

namespace anole::baselines {
namespace {

std::unique_ptr<SingleModelMethod> train_single(
    const world::World& world, const detect::GridDetectorConfig& detector_config,
    const detect::DetectorTrainConfig& train_config, Rng& rng) {
  const auto frames = world.frames_with_role(world::SplitRole::kTrain);
  ANOLE_CHECK(!frames.empty(), "train_single: world has no train frames");
  auto detector = std::make_unique<detect::GridDetector>(
      detector_config, rng, world.config.grid_size);
  detect::train_detector(*detector, frames, train_config, rng);
  return std::make_unique<SingleModelMethod>(detector_config.name,
                                             std::move(detector));
}

}  // namespace

SingleModelMethod::SingleModelMethod(
    std::string name, std::unique_ptr<detect::GridDetector> detector)
    : name_(std::move(name)), detector_(std::move(detector)) {}

std::vector<detect::Detection> SingleModelMethod::infer(
    const world::Frame& frame) {
  return detector_->infer(frame);
}

std::uint64_t SingleModelMethod::detector_flops() const {
  return detector_->flops_per_frame();
}

std::uint64_t SingleModelMethod::weight_bytes() {
  return detector_->weight_bytes();
}

std::unique_ptr<SingleModelMethod> train_sdm(const world::World& world,
                                             const BaselineConfig& config,
                                             Rng& rng) {
  return train_single(world, config.deep_config, config.detector_train, rng);
}

std::unique_ptr<SingleModelMethod> train_ssm(const world::World& world,
                                             const BaselineConfig& config,
                                             Rng& rng) {
  return train_single(world, config.compressed_config, config.detector_train,
                      rng);
}

CdgMethod::CdgMethod(
    Tensor centroids,
    std::vector<std::unique_ptr<detect::GridDetector>> detectors)
    : centroids_(std::move(centroids)), detectors_(std::move(detectors)) {
  ANOLE_CHECK(!detectors_.empty(), "CdgMethod: no detectors");
  ANOLE_CHECK_EQ(centroids_.rows(), detectors_.size(),
                 "CdgMethod: centroid/detector count mismatch");
}

std::size_t CdgMethod::select_cluster(const world::Frame& frame) const {
  const Tensor descriptor = featurizer_.featurize(frame);
  return cluster::nearest_centroid(centroids_, descriptor.row(0));
}

std::vector<detect::Detection> CdgMethod::infer(const world::Frame& frame) {
  return detectors_[select_cluster(frame)]->infer(frame);
}

std::uint64_t CdgMethod::detector_flops() const {
  return detectors_.front()->flops_per_frame();
}

std::uint64_t CdgMethod::decision_flops() const {
  // Nearest-centroid search: one distance per cluster.
  return static_cast<std::uint64_t>(2 * centroids_.rows() *
                                    centroids_.cols());
}

std::uint64_t CdgMethod::weight_bytes() {
  std::uint64_t total = 0;
  for (auto& detector : detectors_) total += detector->weight_bytes();
  return total;
}

std::unique_ptr<CdgMethod> train_cdg(const world::World& world,
                                     const BaselineConfig& config, Rng& rng) {
  const auto frames = world.frames_with_role(world::SplitRole::kTrain);
  ANOLE_CHECK_GE(config.cdg_clusters, 1u, "train_cdg: cdg_clusters == 0");
  ANOLE_CHECK_GE(frames.size(), config.cdg_clusters,
                 "train_cdg: fewer train frames than clusters");
  const world::FrameFeaturizer featurizer;
  const Tensor descriptors = featurizer.featurize_batch(frames);
  cluster::KMeansConfig kmeans_config;
  kmeans_config.clusters = config.cdg_clusters;
  const auto clustering = cluster::kmeans(descriptors, kmeans_config, rng);

  detect::DetectorTrainConfig train_config = config.detector_train;
  if (train_config.reference_frames == 0) {
    train_config.reference_frames = frames.size();
  }

  std::vector<std::unique_ptr<detect::GridDetector>> detectors;
  for (std::size_t c = 0; c < config.cdg_clusters; ++c) {
    std::vector<const world::Frame*> members;
    for (std::size_t i = 0; i < frames.size(); ++i) {
      if (clustering.assignments[i] == c) members.push_back(frames[i]);
    }
    detect::GridDetectorConfig detector_config = config.compressed_config;
    detector_config.name = "CDG-" + std::to_string(c);
    auto detector = std::make_unique<detect::GridDetector>(
        detector_config, rng, world.config.grid_size);
    if (!members.empty()) {
      detect::train_detector(*detector, members, train_config, rng);
    }
    detectors.push_back(std::move(detector));
  }
  return std::make_unique<CdgMethod>(clustering.centroids,
                                     std::move(detectors));
}

DmmMethod::DmmMethod(
    std::vector<std::unique_ptr<detect::GridDetector>> per_dataset)
    : detectors_(std::move(per_dataset)) {
  ANOLE_CHECK(!detectors_.empty(), "DmmMethod: no detectors");
}

std::vector<detect::Detection> DmmMethod::infer(const world::Frame& frame) {
  ANOLE_CHECK_RANGE(frame.dataset_id, detectors_.size(),
                    "DmmMethod::infer: unknown dataset");
  return detectors_[frame.dataset_id]->infer(frame);
}

std::uint64_t DmmMethod::detector_flops() const {
  return detectors_.front()->flops_per_frame();
}

std::uint64_t DmmMethod::weight_bytes() {
  std::uint64_t total = 0;
  for (auto& detector : detectors_) total += detector->weight_bytes();
  return total;
}

std::unique_ptr<DmmMethod> train_dmm(const world::World& world,
                                     const BaselineConfig& config, Rng& rng) {
  detect::DetectorTrainConfig train_config = config.detector_train;
  if (train_config.reference_frames == 0) {
    train_config.reference_frames =
        world.frames_with_role(world::SplitRole::kTrain).size();
  }
  std::vector<std::unique_ptr<detect::GridDetector>> detectors;
  for (std::size_t d = 0; d < world.dataset_names.size(); ++d) {
    const auto frames = world.frames_with_role(world::SplitRole::kTrain, d);
    detect::GridDetectorConfig detector_config = config.compressed_config;
    detector_config.name = "DMM-" + world.dataset_names[d];
    auto detector = std::make_unique<detect::GridDetector>(
        detector_config, rng, world.config.grid_size);
    if (!frames.empty()) {
      detect::train_detector(*detector, frames, train_config, rng);
    }
    detectors.push_back(std::move(detector));
  }
  return std::make_unique<DmmMethod>(std::move(detectors));
}

AnoleMethod::AnoleMethod(core::AnoleSystem& system,
                         const core::CacheConfig& cache)
    : system_(&system), engine_(system, cache) {}

AnoleMethod::AnoleMethod(core::AnoleSystem& system,
                         const core::EngineConfig& config, std::string name)
    : system_(&system), name_(std::move(name)), engine_(system, config) {}

std::vector<detect::Detection> AnoleMethod::infer(const world::Frame& frame) {
  return engine_.process(frame).detections;
}

std::uint64_t AnoleMethod::detector_flops() const {
  return system_->repository.empty()
             ? 0
             : system_->repository.model(0).detector->flops_per_frame();
}

std::uint64_t AnoleMethod::decision_flops() const {
  return system_->decision ? system_->decision->flops_per_sample() : 0;
}

std::uint64_t AnoleMethod::weight_bytes() {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < system_->repository.size(); ++i) {
    total += system_->repository.detector(i).weight_bytes();
  }
  return total;
}

}  // namespace anole::baselines
