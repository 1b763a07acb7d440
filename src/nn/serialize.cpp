#include "nn/serialize.hpp"

#include <array>
#include <fstream>
#include <sstream>
#include <vector>

#include "nn/quantize.hpp"
#include "tensor/qgemm.hpp"
#include "util/check.hpp"

namespace anole::nn {
namespace {

constexpr std::array<char, 8> kMagic = {'A', 'N', 'O', 'L',
                                        'E', 'W', 'T', 'S'};
constexpr std::uint32_t kVersion = 1;

/// Precision tags of the compact network format (one byte per Linear).
constexpr std::uint8_t kTagFp32 = 0;
constexpr std::uint8_t kTagInt8 = 1;

void write_fp16_span(std::ostream& out, std::span<const float> values) {
  for (const float v : values) write_pod(out, float_to_half(v));
}

void read_fp16_span(std::istream& in, std::span<float> values) {
  for (float& v : values) v = half_to_float(read_pod<std::uint16_t>(in));
}

/// ANOLEWTS header: magic, version, parameter count.
constexpr std::uint64_t kBlobHeaderBytes =
    kMagic.size() + sizeof(kVersion) + sizeof(std::uint32_t);

/// One parameter's ANOLEWTS record: rank, dims, fp32 values.
std::uint64_t blob_record_bytes(const Tensor& value) {
  return sizeof(std::uint32_t) +
         value.shape().size() * sizeof(std::uint64_t) +
         value.size() * sizeof(float);
}

/// Contract: the precision-tagged format walks Linear/QuantizedLinear
/// positions only, so no other layer may carry weights.
void check_untagged_layer(Module& module, const char* caller) {
  ANOLE_CHECK(module.parameters().empty(), caller, ": layer ", module.name(),
              " has parameters but no wire precision tag");
}

}  // namespace

void write_bytes(std::ostream& out, const void* data, std::size_t size) {
  out.write(static_cast<const char*>(data),
            static_cast<std::streamsize>(size));
}

void read_bytes(std::istream& in, void* data, std::size_t size) {
  in.read(static_cast<char*>(data), static_cast<std::streamsize>(size));
  if (!in) throw std::runtime_error("read_bytes: truncated stream");
}

void save_parameters(Module& module, std::ostream& out) {
  out.write(kMagic.data(), kMagic.size());
  write_pod(out, kVersion);
  const auto params = module.parameters();
  write_pod(out, static_cast<std::uint32_t>(params.size()));
  for (Parameter* p : params) {
    const Shape& shape = p->value.shape();
    write_pod(out, static_cast<std::uint32_t>(shape.size()));
    for (std::size_t d : shape) write_pod(out, static_cast<std::uint64_t>(d));
    const auto data = p->value.data();
    write_bytes(out, data.data(), data.size() * sizeof(float));
  }
  if (!out) throw std::runtime_error("save_parameters: write failed");
}

void load_parameters(Module& module, std::istream& in) {
  std::array<char, 8> magic{};
  in.read(magic.data(), magic.size());
  if (!in || magic != kMagic) {
    throw std::runtime_error("load_parameters: bad magic");
  }
  const auto version = read_pod<std::uint32_t>(in);
  if (version != kVersion) {
    throw std::runtime_error("load_parameters: unsupported version");
  }
  const auto params = module.parameters();
  const auto count = read_pod<std::uint32_t>(in);
  if (count != params.size()) {
    throw std::runtime_error("load_parameters: parameter count mismatch");
  }
  for (Parameter* p : params) {
    const auto rank = read_pod<std::uint32_t>(in);
    Shape shape(rank);
    for (auto& d : shape) {
      d = static_cast<std::size_t>(read_pod<std::uint64_t>(in));
    }
    if (shape != p->value.shape()) {
      throw std::runtime_error("load_parameters: shape mismatch");
    }
    auto data = p->value.data();
    read_bytes(in, data.data(), data.size() * sizeof(float));
  }
}

void save_parameters_to_file(Module& module, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open for write: " + path);
  save_parameters(module, out);
}

void load_parameters_from_file(Module& module, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open for read: " + path);
  load_parameters(module, in);
}

std::uint64_t serialized_size_bytes(Module& module) {
  std::uint64_t bytes = kBlobHeaderBytes;
  for (Parameter* p : module.parameters()) bytes += blob_record_bytes(p->value);
  return bytes;
}

void save_network(Sequential& net, std::ostream& out) {
  for (std::size_t i = 0; i < net.size(); ++i) {
    Module& module = net.at(i);
    if (auto* linear = dynamic_cast<Linear*>(&module)) {
      write_pod(out, kTagFp32);
      const auto weight = linear->weight().value.data();
      write_bytes(out, weight.data(), weight.size() * sizeof(float));
      const auto bias = linear->bias().value.data();
      write_bytes(out, bias.data(), bias.size() * sizeof(float));
      continue;
    }
    if (auto* quantized = dynamic_cast<QuantizedLinear*>(&module)) {
      write_pod(out, kTagInt8);
      const QuantizedMatrix& w = quantized->quantized_weights();
      write_bytes(out, w.data.data(), w.data.size());
      write_fp16_span(out, w.scales);
      write_fp16_span(out, quantized->bias().data());
      continue;
    }
    check_untagged_layer(module, "save_network");
  }
  if (!out) throw std::runtime_error("save_network: write failed");
}

void load_network(Sequential& net, std::istream& in) {
  for (std::size_t i = 0; i < net.size(); ++i) {
    Module& module = net.at(i);
    if (auto* linear = dynamic_cast<Linear*>(&module)) {
      const auto tag = read_pod<std::uint8_t>(in);
      if (tag == kTagFp32) {
        auto weight = linear->weight().value.data();
        read_bytes(in, weight.data(), weight.size() * sizeof(float));
        auto bias = linear->bias().value.data();
        read_bytes(in, bias.data(), bias.size() * sizeof(float));
      } else if (tag == kTagInt8) {
        QuantizedMatrix w;
        w.depth = linear->in_features();
        w.channels = linear->out_features();
        w.data.resize(w.channels * w.depth);
        read_bytes(in, w.data.data(), w.data.size());
        w.scales.resize(w.channels);
        read_fp16_span(in, w.scales);
        Tensor bias(Shape{w.channels});
        read_fp16_span(in, bias.data());
        net.replace(i, std::make_unique<QuantizedLinear>(std::move(w),
                                                         std::move(bias)));
      } else {
        throw std::runtime_error("load_network: unknown precision tag");
      }
      continue;
    }
    if (dynamic_cast<QuantizedLinear*>(&module) != nullptr) {
      // Loading always starts from a freshly constructed fp32 network.
      throw std::runtime_error(
          "load_network: target network is already quantized");
    }
    check_untagged_layer(module, "load_network");
  }
}

std::uint64_t network_wire_bytes(const Sequential& net) {
  std::uint64_t bytes = 0;
  for (std::size_t i = 0; i < net.size(); ++i) {
    const Module& module = net.at(i);
    if (auto* linear = dynamic_cast<const Linear*>(&module)) {
      bytes += sizeof(std::uint8_t);
      bytes += (linear->weight().value.size() + linear->bias().value.size()) *
               sizeof(float);
      continue;
    }
    if (auto* quantized = dynamic_cast<const QuantizedLinear*>(&module)) {
      bytes += sizeof(std::uint8_t);
      bytes += quantized->quantized_weights().data.size();
      bytes += quantized->quantized_weights().scales.size() *
               sizeof(std::uint16_t);
      bytes += quantized->bias().size() * sizeof(std::uint16_t);
    }
  }
  return bytes;
}

std::uint64_t streamed_weight_bytes(const Sequential& net) {
  if (is_quantized(net)) return network_wire_bytes(net);
  // fp32: the ANOLEWTS blob save_parameters writes (serialized_size_bytes
  // of the same network, walked through the const layers).
  std::uint64_t bytes = kBlobHeaderBytes;
  for (std::size_t i = 0; i < net.size(); ++i) {
    if (auto* linear = dynamic_cast<const Linear*>(&net.at(i))) {
      bytes += blob_record_bytes(linear->weight().value) +
               blob_record_bytes(linear->bias().value);
    }
  }
  return bytes;
}

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
  // Table-driven CRC-32 (reflected polynomial 0xEDB88320). The table is
  // built once on first use; thread-safe per C++11 static initialization.
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint32_t crc = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ bytes[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace anole::nn
