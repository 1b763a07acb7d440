// Deployment artifacts: serialize a trained AnoleSystem to a single binary
// blob and load it back.
//
// This is the paper's "download pre-trained {M_1..M_n} and M_decision to
// the device" step: the cloud-side OfflineProfiler produces an
// AnoleSystem, save_system() ships it, and the device reconstructs an
// identical system with load_system() — no training data travels, so the
// loaded repository carries no ASS frame pools (they are cloud-only).
//
// Format v2 (self-healing, DESIGN.md §9): the blob is a sequence of
// CRC-32-guarded sections. Vital sections (scene index, encoder, decision
// head) come first; one section per compressed model follows, so tail
// truncation can only damage models. A corrupt or truncated model section
// does not abort the load: the slot gets a placeholder detector, the
// model id is recorded in AnoleSystem::damaged_models, and the engine
// quarantines it permanently. Corruption in a vital section throws.
// Only v2 and v3 load; any other version, including the unsectioned v1,
// fails as unsupported.
//
// Format v3 (quantized sections, DESIGN.md §10) keeps v2's framing —
// identical blob header, section headers, CRC-32 policy, and recovery
// ladder — but stores model and decision sections compactly: narrow
// metadata fields plus the precision-tagged nn::save_network payload, so
// int8-quantized layers ship as int8 weights + fp16 scales (~4x fewer
// bytes on a cache miss). The encoder section stays fp32 (its trunk is
// shared with the decision head and is never quantized). Saving a
// quantized system requires v3; the v2 writer rejects it rather than
// silently dropping quantized weights. A caller that wants fp32 from a
// v3 blob calls core::dequantize_system() after loading.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "core/engine.hpp"

namespace anole::core {

/// Latest artifact format version written by save_system.
inline constexpr std::uint32_t kArtifactVersion = 3;

/// Writes the full system (scene index, M_scene, every compressed model
/// with its metadata, M_decision head) to `out`. `version` selects the
/// blob format (2 = CRC-guarded fp32 sections, 3 = CRC-guarded sections
/// with compact quantized payloads). Throws std::runtime_error on I/O
/// failure, on any other version, and when `version` is 2 and the system
/// carries quantized layers (v2 cannot represent them).
void save_system(AnoleSystem& system, std::ostream& out,
                 std::uint32_t version = kArtifactVersion);

/// Reconstructs a system from a stream written by save_system. The loaded
/// models produce bit-identical inference results; `training_frames` /
/// `validation_frames` pools are empty (deployment artifacts carry no
/// data). Models whose v2 sections fail their checksum are replaced by
/// placeholders and listed in AnoleSystem::damaged_models. Throws
/// std::runtime_error on malformed vital input or when every model is
/// damaged, and on a version other than 2 or 3. `faults` (optional, site
/// `artifact_section`) deterministically flips one bit per hit section
/// before verification, simulating storage rot; pass nullptr for a
/// faithful load.
AnoleSystem load_system(std::istream& in,
                        fault::FaultInjector* faults = nullptr);

/// File-based wrappers.
void save_system_to_file(AnoleSystem& system, const std::string& path);
AnoleSystem load_system_from_file(const std::string& path);

/// Total artifact size in bytes (what the device must download).
std::uint64_t system_artifact_bytes(AnoleSystem& system);

}  // namespace anole::core
