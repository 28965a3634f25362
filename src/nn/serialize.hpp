#pragma once
// Checkpointing: save/restore MLP models.
//
// Format v2 (binary, the serving registry's on-disk contract):
//   "SGMCKPT2" magic, u32 format version, then a header (scenario name,
//   model version, the full architecture: dims, activation name, encoding)
//   followed by every parameter tensor, and an FNV-1a64 checksum trailer
//   over the whole body. All integers and doubles are encoded explicitly as
//   little-endian bytes (doubles via their IEEE-754 bit pattern), so a
//   checkpoint written on any host reads back bit-identically on any other
//   — and the checksum turns any single flipped byte into a load error
//   instead of silently corrupted predictions.
//
// Two API levels:
//  * parameter-only (save_parameters/load_parameters + the *_checkpoint
//    path wrappers): the architecture comes from the caller's net, whose
//    shapes must match the checkpoint exactly;
//  * full-model (save_model/load_model + read_model_info): the header's
//    architecture snapshot is enough to reconstruct the Mlp from the file
//    alone — what serve::ModelRegistry loads on demand. Activations are
//    restored by name through activation_by_name() (i.e. the library
//    singletons; a Sine with non-default w0 is not representable).
//    Encodings: identity/null and FourierEncoding (frequency matrix stored).

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>

#include "nn/mlp.hpp"

namespace sgm::nn {

inline constexpr std::uint32_t kCheckpointFormatVersion = 2;

/// Registry-level identity of a checkpoint (who it is, not what it is).
struct CheckpointMeta {
  std::string scenario;            ///< registry key; "" outside the registry
  std::uint64_t model_version = 0; ///< publish counter; 0 = unversioned
};

/// Everything the header + trailer carry, decoded.
struct CheckpointInfo {
  CheckpointMeta meta;
  MlpConfig config;               ///< reconstructed architecture
  std::uint64_t checksum = 0;     ///< FNV-1a64 of the body, as stored
  std::uint32_t format_version = kCheckpointFormatVersion;
};

// ---------------------------------------------------------------------------
// Parameter-only API (architecture supplied by the caller's net)
// ---------------------------------------------------------------------------

/// Writes `net` as a v2 binary checkpoint with empty meta. Throws
/// std::runtime_error on stream failure.
void save_parameters(const Mlp& net, std::ostream& out);

/// Reads parameters into `net` from a v2 binary checkpoint. Throws
/// std::runtime_error on malformed/truncated/corrupt input (checksum
/// verified), unsupported format versions, or any architecture mismatch.
void load_parameters(Mlp& net, std::istream& in);

/// File-path wrappers. Saving is crash-safe and durable: the bytes go
/// through util::write_file_durable (temp file + fsync file + atomic
/// rename + fsync directory), so `path` never names a partial checkpoint
/// and a completed save survives power loss.
void save_checkpoint(const Mlp& net, const std::string& path);
void load_checkpoint(Mlp& net, const std::string& path);

// ---------------------------------------------------------------------------
// Full-model API (architecture restored from the header)
// ---------------------------------------------------------------------------

/// Writes `net` with `meta` as a v2 binary checkpoint. The file variant
/// is crash-safe + durable (same write_file_durable protocol as
/// save_checkpoint); the stream variant flushes and checks the stream but
/// cannot fsync — callers owning a path should prefer the file variant.
void save_model(const Mlp& net, std::ostream& out, const CheckpointMeta& meta);
void save_model_file(const Mlp& net, const std::string& path,
                     const CheckpointMeta& meta);

struct LoadedModel {
  CheckpointInfo info;
  std::unique_ptr<Mlp> model;
};

/// Reconstructs the full model from a v2 checkpoint (header architecture +
/// weights, checksum verified). Throws std::runtime_error on
/// malformed/truncated/corrupt input or unsupported format versions.
LoadedModel load_model(std::istream& in);
LoadedModel load_model_file(const std::string& path);

/// Header + checksum only (weights parsed and verified, then discarded).
CheckpointInfo read_model_info(const std::string& path);

}  // namespace sgm::nn
