#include "hdc/item_memory.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "hdc/instrument.hpp"
#include "hdc/packed_hv.hpp"
#include "util/bitops.hpp"
#include "util/checksum.hpp"

namespace hdtest::hdc {

ItemMemory::ItemMemory(std::size_t count, std::size_t dim, std::uint64_t seed,
                       ValueStrategy strategy)
    : dim_(dim), strategy_(strategy) {
  if (count == 0) {
    throw std::invalid_argument("ItemMemory: count must be non-zero");
  }
  if (dim == 0) {
    throw std::invalid_argument("ItemMemory: dim must be non-zero");
  }
  instrument::note_item_memory_generation();
  entries_.reserve(count);
  switch (strategy) {
    case ValueStrategy::kRandom:
      for (std::size_t i = 0; i < count; ++i) {
        util::Rng rng(util::derive_seed(seed, i));
        entries_.push_back(Hypervector::random(dim, rng));
      }
      break;
    case ValueStrategy::kLevel: {
      // Level encoding: start from a random HV; between consecutive levels
      // flip a fixed-size batch of fresh positions so that level 0 and level
      // count-1 differ in ~dim/2 positions (near-orthogonal endpoints) and
      // similarity decays linearly with level distance.
      util::Rng rng(util::derive_seed(seed, 0));
      Hypervector current = Hypervector::random(dim, rng);
      entries_.push_back(current);
      if (count > 1) {
        // Random permutation of positions; each step flips the next batch.
        auto order = rng.sample_indices(dim, dim);
        const std::size_t total_flips = dim / 2;
        std::size_t flipped = 0;
        for (std::size_t level = 1; level < count; ++level) {
          const std::size_t target =
              total_flips * level / (count - 1);
          while (flipped < target && flipped < order.size()) {
            current.flip(order[flipped]);
            ++flipped;
          }
          entries_.push_back(current);
        }
      }
      break;
    }
    case ValueStrategy::kThermometer: {
      // Thermometer code over a fixed random permutation: level i is +1 on
      // the first floor(dim * i / (count-1)) permuted positions.
      util::Rng rng(util::derive_seed(seed, 0));
      auto order = rng.sample_indices(dim, dim);
      for (std::size_t level = 0; level < count; ++level) {
        std::vector<std::int8_t> raw(dim, -1);
        const std::size_t ones =
            count > 1 ? dim * level / (count - 1) : dim;
        for (std::size_t i = 0; i < ones; ++i) raw[order[i]] = 1;
        entries_.push_back(Hypervector::from_raw(std::move(raw)));
      }
      break;
    }
  }
}

const Hypervector& ItemMemory::at(std::size_t index) const {
  if (index >= entries_.size()) {
    throw std::out_of_range("ItemMemory::at: index out of range");
  }
  return entries_[index];
}

PackedItemMemory::PackedItemMemory(const ItemMemory& source)
    : dim_(source.dim()),
      count_(source.count()),
      stride_(util::words_for_bits(source.dim())) {
  storage_.assign(count_ * stride_, 0);
  for (std::size_t i = 0; i < count_; ++i) {
    const auto packed = PackedHv::from_dense(source[i]);
    const auto src = packed.words();
    std::copy(src.begin(), src.end(), storage_.begin() + i * stride_);
  }
  data_ = storage_.data();
  instrument::note_packed_codebook_build();
}

PackedItemMemory::PackedItemMemory(const PackedItemMemory& other)
    : dim_(other.dim_),
      count_(other.count_),
      stride_(other.stride_),
      storage_(other.storage_) {
  // An owning copy re-points into its own storage; a view copy keeps
  // borrowing the external words.
  data_ = other.owning() ? storage_.data() : other.data_;
}

PackedItemMemory& PackedItemMemory::operator=(const PackedItemMemory& other) {
  if (this != &other) *this = PackedItemMemory(other);
  return *this;
}

PackedItemMemory::PackedItemMemory(PackedItemMemory&& other) noexcept
    : dim_(std::exchange(other.dim_, 0)),
      count_(std::exchange(other.count_, 0)),
      stride_(std::exchange(other.stride_, 0)),
      data_(std::exchange(other.data_, nullptr)),
      storage_(std::move(other.storage_)) {
  other.storage_.clear();
}

PackedItemMemory& PackedItemMemory::operator=(
    PackedItemMemory&& other) noexcept {
  if (this != &other) {
    dim_ = std::exchange(other.dim_, 0);
    count_ = std::exchange(other.count_, 0);
    stride_ = std::exchange(other.stride_, 0);
    data_ = std::exchange(other.data_, nullptr);
    storage_ = std::move(other.storage_);
    other.storage_.clear();
  }
  return *this;
}

PackedItemMemory PackedItemMemory::view(std::size_t dim, std::size_t count,
                                        std::span<const std::uint64_t> words) {
  if (dim == 0) {
    throw std::invalid_argument("PackedItemMemory::view: dim must be non-zero");
  }
  if (count == 0) {
    throw std::invalid_argument(
        "PackedItemMemory::view: count must be non-zero");
  }
  const std::size_t stride = util::words_for_bits(dim);
  if (count > words.size() / stride || words.size() != count * stride) {
    throw std::invalid_argument(
        "PackedItemMemory::view: word count does not match dim * count");
  }
  const std::uint64_t tail = util::tail_mask(dim);
  for (std::size_t i = 0; i < count; ++i) {
    if ((words[i * stride + stride - 1] & ~tail) != 0) {
      throw std::invalid_argument(
          "PackedItemMemory::view: non-zero padding bits past dim");
    }
  }
  PackedItemMemory memory;
  memory.dim_ = dim;
  memory.count_ = count;
  memory.stride_ = stride;
  memory.data_ = words.data();
  return memory;
}

PackedItemMemory PackedItemMemory::remat(std::size_t dim, std::size_t count,
                                         std::uint64_t seed) {
  if (dim == 0) {
    throw std::invalid_argument(
        "PackedItemMemory::remat: dim must be non-zero");
  }
  if (count == 0) {
    throw std::invalid_argument(
        "PackedItemMemory::remat: count must be non-zero");
  }
  PackedItemMemory memory;
  memory.dim_ = dim;
  memory.count_ = count;
  memory.stride_ = util::words_for_bits(dim);
  memory.storage_.resize(count * memory.stride_);
  // Bit-exact with PackedHv::from_dense(Hypervector::random(dim, rng)) for
  // rng = Rng(derive_seed(seed, i)): random() maps rng bit 1 -> +1 and
  // bit 0 -> -1 consuming one u64 per 64 lanes, from_dense packs bit 1 for
  // element -1 — so each packed word is the complement of one rng draw,
  // with padding past dim cleared like every packed row.
  const std::size_t last = memory.stride_ - 1;
  for (std::size_t i = 0; i < count; ++i) {
    util::Rng rng(util::derive_seed(seed, i));
    std::uint64_t* row = memory.storage_.data() + i * memory.stride_;
    for (std::size_t w = 0; w < last; ++w) row[w] = ~rng.next_u64();
    row[last] = ~rng.next_u64() & util::tail_mask(dim);
  }
  memory.data_ = memory.storage_.data();
  return memory;
}

std::span<const std::uint64_t> PackedItemMemory::at(std::size_t index) const {
  if (index >= count_) {
    throw std::out_of_range("PackedItemMemory::at: index out of range");
  }
  return (*this)[index];
}

std::uint64_t PackedItemMemory::content_digest() const {
  // Little-endian per-word byte fold so the digest equals util::fnv1a over
  // the stored mirror's on-disk bytes (the v3 codebook section image).
  std::uint64_t digest = util::kFnv1aOffsetBasis;
  for (const std::uint64_t word : words()) {
    for (int shift = 0; shift < 64; shift += 8) {
      digest = util::fnv1a_byte(digest,
                                static_cast<std::uint8_t>(word >> shift));
    }
  }
  return digest;
}

}  // namespace hdtest::hdc
