#include "nn/serialize.hpp"

#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "nn/activation.hpp"
#include "nn/encoding.hpp"
#include "util/binio.hpp"
#include "util/fs.hpp"
#include "util/rng.hpp"

namespace sgm::nn {

namespace {

using util::binio::ByteReader;
using util::binio::fnv1a64;
using util::binio::put_f64;
using util::binio::put_str;
using util::binio::put_u32;
using util::binio::put_u64;

constexpr char kMagicV2[8] = {'S', 'G', 'M', 'C', 'K', 'P', 'T', '2'};

constexpr std::uint32_t kEncodingNone = 0;
constexpr std::uint32_t kEncodingFourier = 1;

void put_matrix(std::string& b, const tensor::Matrix& m) {
  put_u64(b, m.rows());
  put_u64(b, m.cols());
  for (std::size_t i = 0; i < m.size(); ++i) put_f64(b, m.data()[i]);
}

tensor::Matrix read_matrix(ByteReader& r) {
  const std::uint64_t rows = r.u64();
  const std::uint64_t cols = r.u64();
  if (rows > (1ull << 24) || cols > (1ull << 24) ||
      rows * cols > r.remaining() / 8)
    throw std::runtime_error("checkpoint: implausible tensor shape " +
                             std::to_string(rows) + "x" +
                             std::to_string(cols));
  tensor::Matrix m(static_cast<std::size_t>(rows),
                   static_cast<std::size_t>(cols));
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = r.f64();
  return m;
}

/// Serialized architecture + weights + meta: the checksummed body.
std::string encode_body(const Mlp& net, const CheckpointMeta& meta) {
  const MlpConfig& cfg = net.config();
  std::string body;
  put_str(body, meta.scenario);
  put_u64(body, meta.model_version);

  put_u64(body, cfg.input_dim);
  put_u64(body, cfg.output_dim);
  put_u64(body, cfg.width);
  put_u64(body, cfg.depth);
  put_str(body, cfg.activation->name());
  if (!cfg.encoding ||
      dynamic_cast<const IdentityEncoding*>(cfg.encoding.get())) {
    put_u32(body, kEncodingNone);
  } else if (const auto* fourier =
                 dynamic_cast<const FourierEncoding*>(cfg.encoding.get())) {
    put_u32(body, kEncodingFourier);
    put_matrix(body, fourier->frequencies());
  } else {
    throw std::runtime_error(
        "save_model: unsupported input encoding (only identity and Fourier "
        "encodings are serializable)");
  }

  const auto params = net.parameters();
  put_u64(body, params.size());
  for (const auto* p : params) put_matrix(body, *p);
  return body;
}

struct DecodedBody {
  CheckpointInfo info;
  std::vector<tensor::Matrix> tensors;
};

DecodedBody decode_body(const char* data, std::size_t n) {
  ByteReader r(data, n);
  DecodedBody out;
  out.info.meta.scenario = r.str();
  out.info.meta.model_version = r.u64();

  MlpConfig& cfg = out.info.config;
  cfg.input_dim = static_cast<std::size_t>(r.u64());
  cfg.output_dim = static_cast<std::size_t>(r.u64());
  cfg.width = static_cast<std::size_t>(r.u64());
  cfg.depth = static_cast<std::size_t>(r.u64());
  cfg.activation = &activation_by_name(r.str());
  const std::uint32_t enc_kind = r.u32();
  if (enc_kind == kEncodingFourier) {
    cfg.encoding = std::make_shared<FourierEncoding>(read_matrix(r));
  } else if (enc_kind != kEncodingNone) {
    throw std::runtime_error("checkpoint: unknown encoding kind " +
                             std::to_string(enc_kind));
  }

  const std::uint64_t count = r.u64();
  out.tensors.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t t = 0; t < count; ++t)
    out.tensors.push_back(read_matrix(r));
  if (r.remaining() != 0)
    throw std::runtime_error("checkpoint: trailing bytes after tensors");
  return out;
}

std::string slurp(std::istream& in) {
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) throw std::runtime_error("checkpoint: stream read failed");
  return buf.str();
}

bool looks_like_v2(const std::string& raw) {
  return raw.size() >= sizeof(kMagicV2) &&
         std::memcmp(raw.data(), kMagicV2, sizeof(kMagicV2)) == 0;
}

/// Verifies magic/version/checksum and returns the body slice.
std::pair<const char*, std::size_t> checked_body(const std::string& raw) {
  constexpr std::size_t kPrefix = sizeof(kMagicV2) + 4;  // magic + version
  constexpr std::size_t kTrailer = 8;                    // checksum
  if (raw.size() < kPrefix + kTrailer)
    throw std::runtime_error("checkpoint: truncated header");
  ByteReader version_reader(raw.data() + sizeof(kMagicV2), 4);
  const std::uint32_t version = version_reader.u32();
  if (version != kCheckpointFormatVersion)
    throw std::runtime_error("checkpoint: unsupported format version " +
                             std::to_string(version) + " (this build reads " +
                             std::to_string(kCheckpointFormatVersion) + ")");
  const char* body = raw.data() + kPrefix;
  const std::size_t body_size = raw.size() - kPrefix - kTrailer;
  ByteReader trailer_reader(raw.data() + raw.size() - kTrailer, kTrailer);
  const std::uint64_t stored = trailer_reader.u64();
  if (fnv1a64(body, body_size) != stored)
    throw std::runtime_error(
        "checkpoint: checksum mismatch (truncated or corrupt file)");
  return {body, body_size};
}

/// magic + format version + body + checksum trailer: the full file image.
std::string v2_file_bytes(const std::string& body) {
  std::string file;
  file.reserve(sizeof(kMagicV2) + 4 + body.size() + 8);
  file.append(kMagicV2, sizeof(kMagicV2));
  put_u32(file, kCheckpointFormatVersion);
  file.append(body);
  put_u64(file, fnv1a64(body.data(), body.size()));
  return file;
}

void write_v2(std::ostream& out, const std::string& body) {
  const std::string file = v2_file_bytes(body);
  out.write(file.data(), static_cast<std::streamsize>(file.size()));
  // flush() forces buffered bytes down to the sink so deferred write
  // errors (full disk) surface here, not silently at destruction.
  out.flush();
  if (!out) throw std::runtime_error("checkpoint: stream write failed");
}

}  // namespace

// ---------------------------------------------------------------------------
// Parameter-only API
// ---------------------------------------------------------------------------

void save_parameters(const Mlp& net, std::ostream& out) {
  write_v2(out, encode_body(net, CheckpointMeta{}));
}

void load_parameters(Mlp& net, std::istream& in) {
  const std::string raw = slurp(in);
  if (!looks_like_v2(raw))
    throw std::runtime_error("load_parameters: not an sgm checkpoint");
  const auto [body, body_size] = checked_body(raw);
  DecodedBody decoded = decode_body(body, body_size);
  const auto params = net.parameters();
  if (decoded.tensors.size() != params.size())
    throw std::runtime_error(
        "load_parameters: tensor count mismatch (checkpoint " +
        std::to_string(decoded.tensors.size()) + ", network " +
        std::to_string(params.size()) + ")");
  for (std::size_t t = 0; t < params.size(); ++t) {
    if (!params[t]->same_shape(decoded.tensors[t]))
      throw std::runtime_error("load_parameters: shape mismatch at tensor " +
                               std::to_string(t));
  }
  net.set_parameters(decoded.tensors);
}

void save_checkpoint(const Mlp& net, const std::string& path) {
  util::write_file_durable(path,
                           v2_file_bytes(encode_body(net, CheckpointMeta{})));
}

void load_checkpoint(Mlp& net, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("load_checkpoint: cannot open " + path);
  load_parameters(net, in);
}

// ---------------------------------------------------------------------------
// Full-model API
// ---------------------------------------------------------------------------

void save_model(const Mlp& net, std::ostream& out,
                const CheckpointMeta& meta) {
  write_v2(out, encode_body(net, meta));
}

void save_model_file(const Mlp& net, const std::string& path,
                     const CheckpointMeta& meta) {
  util::write_file_durable(path, v2_file_bytes(encode_body(net, meta)));
}

LoadedModel load_model(std::istream& in) {
  const std::string raw = slurp(in);
  if (!looks_like_v2(raw))
    throw std::runtime_error("load_model: not an sgm checkpoint");
  const auto [body, body_size] = checked_body(raw);
  DecodedBody decoded = decode_body(body, body_size);

  LoadedModel out;
  out.info = decoded.info;
  out.info.checksum = fnv1a64(body, body_size);
  util::Rng init_rng(0);  // initialization is immediately overwritten
  out.model = std::make_unique<Mlp>(out.info.config, init_rng);
  out.model->set_parameters(decoded.tensors);
  return out;
}

LoadedModel load_model_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("load_model_file: cannot open " + path);
  return load_model(in);
}

CheckpointInfo read_model_info(const std::string& path) {
  return load_model_file(path).info;
}

}  // namespace sgm::nn
