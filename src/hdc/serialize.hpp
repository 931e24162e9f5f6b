#pragma once
/// \file serialize.hpp
/// Binary model persistence and zero-copy model serving.
///
/// A trained HDC model stores its configuration, the associative-memory
/// accumulators (so a loaded model can continue retraining exactly where it
/// left off — the defense workflow of section V-D across process restarts),
/// and the packed inference artifacts.
///
/// One format is read and written, v3: a chunked, 64-byte-aligned,
/// explicitly little-endian layout built for mmap. A fixed 64-byte header
/// (magic "HDTM", version, endianness marker, file size, flags, whole-file
/// checksum) is followed by a section table and self-describing sections —
/// config, accumulator lanes, the packed AM rows, the packed item-memory
/// codebook mirrors, and the packed tie-break words. Every section payload
/// is 64-byte aligned, so a read-only mapping can serve the AM rows and
/// codebooks in place. Files with any other version — including the
/// retired v1/v2 stream layouts — are rejected with "unsupported format
/// version N".
///
/// save_model(..., CodebookMode::kRemat) writes the *remat variant* of v3
/// (header flag bit 0): the position codebook mirror — by far the largest
/// section — is omitted, as is the value mirror when the random value
/// strategy can regenerate it row-by-row from the seed; a 16-byte
/// codebook-digest section (FNV-1a over each mirror's packed words) rides
/// along instead. Loaders regenerate the dropped codebooks from the stored
/// seed and verify them against the digests, so a wrong-seed file fails
/// loudly instead of mispredicting quietly. Correlated value strategies
/// (level/thermometer) keep their value mirror stored in the remat variant.
/// The layout is a property of the file only: every loaded model is the
/// same in memory, and saving it again writes whichever layout the caller
/// asks for. Unknown flag bits are rejected.
///
/// Byte order: little-endian by contract, with a header marker. Big-endian
/// hosts are cleanly rejected by both save and load rather than silently
/// corrupting.
///
/// Loading validates magic, version, endianness, checksums, and every
/// section's declared size against the actual payload *before* allocating
/// (overflow-checked products), so corrupted or hostile files throw
/// std::runtime_error with a precise reason instead of OOMing or crashing.
///
/// Zero-copy serving: MappedModel mmaps a v3 file read-only and hands
/// PackedAssocMemory / PackedItemMemory non-owning views over the mapping.
/// For stored-mirror files, construction performs zero dense->packed
/// rebuilds, zero codebook regenerations from the seed, and zero dense-HV
/// materializations (instrument counters prove it; asserted by
/// tests/hdc/mapped_model_test), and N processes mapping one model file
/// share its pages through the kernel page cache. For remat files the
/// omitted codebooks are regenerated from the stored seed once, at map
/// time, into owned packed words — still without a dense intermediate.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "hdc/classifier.hpp"
#include "util/mmap_file.hpp"

namespace hdtest::hdc {

/// The serialization format version, the only one written and read.
inline constexpr std::uint32_t kModelFormatVersion = 3;

/// Which v3 layout save_model writes for the packed codebook mirrors. Every
/// codebook row a random strategy builds is a pure function of the model
/// seed, so a file can store the mirrors verbatim or leave them for the
/// loader to regenerate. Loaded models are identical either way.
enum class CodebookMode {
  /// Position and value mirrors stored verbatim — the layout MappedModel
  /// serves in place with zero regeneration.
  kStored,
  /// Header flag bit 0: the position mirror (and the value mirror under
  /// ValueStrategy::kRandom) omitted, a codebook digest section added.
  /// About 4x smaller at D=4096; loaders pay one regeneration sweep.
  kRemat,
};

/// Writes a trained model to a stream in format v3, in the codebook layout
/// \p codebooks selects.
/// \throws std::logic_error if the model is untrained;
///         std::runtime_error on I/O failure or a big-endian host.
void save_model(const HdcClassifier& model, std::ostream& out,
                CodebookMode codebooks = CodebookMode::kStored);

/// Writes a trained model to a file (crash-safe: temp file, fsync, rename).
void save_model(const HdcClassifier& model, const std::string& path,
                CodebookMode codebooks = CodebookMode::kStored);

/// Reads a v3 model from a stream. The returned model is finalized and
/// ready for prediction and further retraining; the packed snapshot is
/// restored verbatim (zero rebuilds), while the encoder's codebooks
/// regenerate from the stored seed (use MappedModel to avoid that too).
/// Every position-codebook, value-codebook and tie-break section the file
/// carries must equal those regenerated rows word for word (a remat file's
/// omitted codebooks are checked against its digests instead), so a model
/// loaded here encodes exactly as a MappedModel of the same file does.
/// \throws std::runtime_error on malformed input, any version but v3, or a
/// codebook/tie-break section the seed does not reproduce.
[[nodiscard]] HdcClassifier load_model(std::istream& in);

/// Reads a model from a file.
[[nodiscard]] HdcClassifier load_model(const std::string& path);

/// Options for MappedModel.
struct MapOptions {
  /// Verify the header's whole-file checksum at map time, and — for remat
  /// files — check the regenerated codebooks against the stored digests.
  /// Catches any corruption (and any seed that cannot reproduce the saved
  /// codebooks) but touches every page once; serving stacks that trust
  /// their artifact store can turn it off for a pure O(1) cold start of a
  /// stored-layout file (structural validation — header, section table,
  /// config, shapes, padding bits — always runs either way). A remat file
  /// regenerates its omitted codebooks at map time whatever this says.
  /// Even a verified map trusts the checksummed codebook and tie-break
  /// sections a file carries: it serves them in place and never compares
  /// them against the seed (that would cost a regeneration sweep and end
  /// the O(1) map). load_model does compare them, so a file whose sections
  /// were edited with refreshed checksums is rejected there, not here.
  bool verify_checksum = true;
};

/// A v3 model file served directly from a read-only memory mapping.
///
/// The packed associative memory, the packed codebook mirrors the file
/// carries, and the packed tie-break are non-owning views over the
/// mapping: no copies, no dense->packed rebuilds, no codebook regeneration
/// from the seed. Codebooks a remat file omits are regenerated from the
/// seed once, at map time, into owned packed words (still dense-free). All
/// views (and anything copied from them) must not outlive this object.
///
/// Thread-safety: all member functions are const over immutable state, so
/// one MappedModel may serve queries from many threads.
class MappedModel {
 public:
  /// Maps \p path and validates the layout.
  /// \throws std::runtime_error on I/O failure, a non-v3 file, a byte-order
  /// mismatch, or any structural/checksum validation failure.
  explicit MappedModel(const std::string& path, MapOptions options = {});

  MappedModel(MappedModel&&) noexcept = default;
  MappedModel& operator=(MappedModel&&) noexcept = default;
  MappedModel(const MappedModel&) = delete;
  MappedModel& operator=(const MappedModel&) = delete;

  [[nodiscard]] const ModelConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t width() const noexcept { return width_; }
  [[nodiscard]] std::size_t height() const noexcept { return height_; }
  [[nodiscard]] std::size_t num_classes() const noexcept {
    return am_.num_classes();
  }

  /// The packed associative memory, serving the mapped rows in place.
  [[nodiscard]] const PackedAssocMemory& am() const noexcept { return am_; }

  /// The packed codebooks: mapped rows served in place for sections the
  /// file carries, owned regenerated rows for codebooks a remat file omits.
  [[nodiscard]] const PackedItemMemory& position_codebook() const noexcept {
    return positions_;
  }
  [[nodiscard]] const PackedItemMemory& value_codebook() const noexcept {
    return values_;
  }

  /// Encodes an image through the mapped codebooks (bit-sliced, dense-free).
  /// Bit-exact with PixelEncoder::encode_packed of the saved model.
  /// \throws std::invalid_argument on shape mismatch.
  [[nodiscard]] PackedHv encode_packed(const data::Image& image) const;

  /// Predicted class of an image — bit-identical to the stream-loaded
  /// model's predict() on the same input.
  [[nodiscard]] std::size_t predict(const data::Image& image) const;

  /// Batched inference over \p workers threads; bit-identical to
  /// HdcClassifier::predict_batch of the saved model for any worker count.
  [[nodiscard]] std::vector<std::size_t> predict_batch(
      std::span<const data::Image> images, std::size_t workers = 1) const;

 private:
  util::MappedFile file_;
  ModelConfig config_;
  std::size_t width_ = 0;
  std::size_t height_ = 0;
  PackedItemMemory positions_;  ///< view into file_, or owned (remat file)
  PackedItemMemory values_;     ///< view into file_, or owned (remat file)
  PackedHv tie_break_;          ///< tiny owned copy of the stored words
  PackedAssocMemory am_;        ///< view into file_
};

}  // namespace hdtest::hdc
