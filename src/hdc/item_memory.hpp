#pragma once
/// \file item_memory.hpp
/// Item memories: the fixed random codebooks of HDC (paper section III-A).
///
/// An item memory maps a discrete symbol (a pixel position, a gray level, a
/// character) to a fixed pseudo-random hypervector. The paper's image model
/// uses two: the *position memory* (one HV per pixel index, always i.i.d.
/// random) and the *value memory* (one HV per gray level; the paper draws
/// these i.i.d. random as well — ValueStrategy::kRandom — with correlated
/// alternatives provided for ablation).

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "hdc/config.hpp"
#include "hdc/hypervector.hpp"
#include "util/aligned_allocator.hpp"
#include "util/rng.hpp"

namespace hdtest::hdc {

/// A fixed codebook of \c count hypervectors of dimension \c dim, generated
/// deterministically from a seed at construction.
class ItemMemory {
 public:
  /// Generates the codebook.
  /// \param count   number of entries (e.g. 784 positions or 256 levels)
  /// \param dim     hypervector dimensionality
  /// \param seed    generation seed (item i derives from child stream i)
  /// \param strategy how entries relate to one another (see ValueStrategy)
  /// \throws std::invalid_argument for zero count/dim.
  ItemMemory(std::size_t count, std::size_t dim, std::uint64_t seed,
             ValueStrategy strategy = ValueStrategy::kRandom);

  [[nodiscard]] std::size_t count() const noexcept { return entries_.size(); }
  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }
  [[nodiscard]] ValueStrategy strategy() const noexcept { return strategy_; }

  /// Entry accessor. \throws std::out_of_range.
  [[nodiscard]] const Hypervector& at(std::size_t index) const;

  /// Unchecked entry accessor (hot path).
  [[nodiscard]] const Hypervector& operator[](std::size_t index) const noexcept {
    return entries_[index];
  }

 private:
  std::size_t dim_;
  ValueStrategy strategy_;
  std::vector<Hypervector> entries_;
};

/// Bit-packed mirror of an ItemMemory.
///
/// Every codebook entry is packed once into sign-bit words (bit = 1 encodes
/// -1) and stored contiguously (count x words_per_entry, row-major), so the
/// bit-sliced encode kernel streams cache-friendly XOR words instead of
/// dense int8 reads. Entry i here packs exactly entry i of the source
/// memory; built once per PixelEncoder and immutable afterwards.
///
/// Storage is either *owning* (the packing constructor and remat()) or a
/// *view* over externally owned words (view(): serialize format v3 maps a
/// model file read-only and serves the stored codebook mirrors in place —
/// zero copies, zero regeneration from the seed). A view, and every copy of
/// it, borrows the external words: it must not outlive them (for v3 that
/// means the hdc::MappedModel's mapping). Copying an owning memory
/// deep-copies.
class PackedItemMemory {
 public:
  /// Empty memory (count() == 0).
  PackedItemMemory() = default;

  /// Packs every entry of \p source (owning storage).
  explicit PackedItemMemory(const ItemMemory& source);

  PackedItemMemory(const PackedItemMemory& other);
  PackedItemMemory& operator=(const PackedItemMemory& other);
  PackedItemMemory(PackedItemMemory&& other) noexcept;
  PackedItemMemory& operator=(PackedItemMemory&& other) noexcept;
  ~PackedItemMemory() = default;

  /// Non-owning view over an already-packed codebook (count rows of
  /// words_for_bits(dim) words each, row-major — the v3 file layout).
  /// \throws std::invalid_argument on zero dim/count, a word count other
  /// than count * words_for_bits(dim), or non-zero padding bits past dim in
  /// any row's last word (the encode kernels rely on clean padding).
  [[nodiscard]] static PackedItemMemory view(
      std::size_t dim, std::size_t count, std::span<const std::uint64_t> words);

  /// Owning memory regenerated from a seed, without a dense intermediate:
  /// row \p i is bit-identical to packing
  /// Hypervector::random(dim, Rng(derive_seed(seed, i))) (one ~rng word per
  /// 64 lanes, tail masked) — the packed image of a ValueStrategy::kRandom
  /// ItemMemory. Serialize v3 uses it to rebuild the codebooks a remat file
  /// omits. Correlated strategies are not per-row pure functions and cannot
  /// be regenerated this way.
  /// \throws std::invalid_argument on zero dim/count.
  [[nodiscard]] static PackedItemMemory remat(std::size_t dim,
                                              std::size_t count,
                                              std::uint64_t seed);

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }

  /// True when this instance owns its words (false for view() results and
  /// their copies).
  [[nodiscard]] bool owning() const noexcept { return !storage_.empty(); }

  /// Packed words per entry (= util::words_for_bits(dim())).
  [[nodiscard]] std::size_t words_per_entry() const noexcept { return stride_; }

  /// All packed words (count x words_per_entry, row-major) — the exact byte
  /// image the v3 codebook sections store.
  [[nodiscard]] std::span<const std::uint64_t> words() const noexcept {
    return {data_, count_ * stride_};
  }

  /// Packed words of entry \p index (unchecked hot path).
  [[nodiscard]] std::span<const std::uint64_t> operator[](
      std::size_t index) const noexcept {
    return {data_ + index * stride_, stride_};
  }

  /// Checked entry accessor. \throws std::out_of_range.
  [[nodiscard]] std::span<const std::uint64_t> at(std::size_t index) const;

  /// FNV-1a digest over the packed row words (all rows, row-major, one
  /// little-endian byte fold per word byte) — the fingerprint a remat v3
  /// file records for each codebook it omits, so a loader can reject a file
  /// whose seed cannot regenerate the original codebook.
  [[nodiscard]] std::uint64_t content_digest() const;

 private:
  std::size_t dim_ = 0;
  std::size_t count_ = 0;
  std::size_t stride_ = 0;
  const std::uint64_t* data_ = nullptr;  ///< storage_ or an external view
  /// count_ x stride_ when owning, on a cache-line boundary like a mapped
  /// section, so rows of whole cache lines stream one line per vector load.
  std::vector<std::uint64_t, util::AlignedAllocator<std::uint64_t, 64>>
      storage_;
};

}  // namespace hdtest::hdc
