// Data fragments: the atomic units of placement.
//
// Depending on the classification granularity (Section 3.1 of the paper) a
// fragment is a whole table, a single column, or a horizontal partition.
// Fragments are interned in a FragmentCatalog which records their sizes;
// query classes and allocations refer to them by dense integer id.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/simd.h"
#include "common/status.h"

namespace qcap {

/// Dense fragment identifier (index into the FragmentCatalog).
using FragmentId = uint32_t;

/// A sorted, duplicate-free set of fragment ids.
using FragmentSet = std::vector<FragmentId>;

/// What a fragment physically is.
enum class FragmentKind {
  kTable,       ///< A whole relation.
  kColumn,      ///< One column of a relation (vertical partitioning).
  kHorizontal   ///< One horizontal partition of a relation.
};

/// One placeable unit of data.
struct Fragment {
  FragmentId id = 0;
  std::string name;        ///< Unique, e.g. "lineitem" or "lineitem.l_price".
  std::string table;       ///< Owning relation.
  FragmentKind kind = FragmentKind::kTable;
  double size_bytes = 0.0; ///< Physical size used by size-aware heuristics.
};

class ConstBitSpan;

/// \brief Interning registry of fragments with size accounting.
class FragmentCatalog {
 public:
  /// Registers a fragment; returns its id. Fails on duplicate names and on
  /// negative or non-finite sizes.
  Result<FragmentId> Add(std::string name, std::string table, FragmentKind kind,
                         double size_bytes);

  /// Number of registered fragments.
  size_t size() const { return fragments_.size(); }
  bool empty() const { return fragments_.empty(); }

  /// Fragment by id; id must be valid.
  const Fragment& Get(FragmentId id) const { return fragments_[id]; }
  /// Id of the fragment named \p name.
  Result<FragmentId> Find(const std::string& name) const;

  /// All fragments in id order.
  const std::vector<Fragment>& fragments() const { return fragments_; }

  /// Sum of sizes of the fragments in \p set.
  double SetBytes(const FragmentSet& set) const;
  /// Sum of sizes of the fragments in \p want but not in \p have, added
  /// in ascending id order: SetBytes(SetDifference(want, have)) bit for
  /// bit, with no set materialized. Words past \p have's end read as zero,
  /// so an empty \p have sums all of \p want.
  double DifferenceBytes(ConstBitSpan want, ConstBitSpan have) const;
  /// Sum of sizes of all fragments (the unreplicated database size).
  double TotalBytes() const;

 private:
  std::vector<Fragment> fragments_;
  std::map<std::string, FragmentId> by_name_;
};

/// \brief Read-only view of word-packed bits that do not live in a
/// DenseBitset — e.g. one row of a struct-of-arrays bitset pool
/// (ClassificationIndex) or an Allocation placement row. Carries the same
/// set-algebra observers as DenseBitset; a DenseBitset converts implicitly.
class ConstBitSpan {
 public:
  ConstBitSpan() = default;
  ConstBitSpan(const uint64_t* words, size_t num_words, size_t num_bits)
      : words_(words), num_words_(num_words), num_bits_(num_bits) {}

  size_t num_bits() const { return num_bits_; }
  size_t num_words() const { return num_words_; }
  const uint64_t* words() const { return words_; }

  bool Test(size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & uint64_t{1};
  }
  /// True iff no bit is set.
  bool None() const {
    for (size_t w = 0; w < num_words_; ++w) {
      if (words_[w] != 0) return false;
    }
    return true;
  }
  /// Number of set bits.
  size_t Count() const { return simd::PopcountWords(words_, num_words_); }

  /// Calls \p fn(index) for every set bit in ascending order.
  template <typename Fn>
  void ForEachSetBit(Fn&& fn) const {
    for (size_t w = 0; w < num_words_; ++w) {
      uint64_t bits = words_[w];
      while (bits != 0) {
        const size_t i = w * 64 + static_cast<size_t>(__builtin_ctzll(bits));
        fn(i);
        bits &= bits - 1;
      }
    }
  }

  /// The set bits as a sorted FragmentSet.
  FragmentSet ToFragmentSet() const {
    FragmentSet out;
    out.reserve(Count());
    ForEachSetBit([&](size_t i) { out.push_back(static_cast<FragmentId>(i)); });
    return out;
  }

 private:
  const uint64_t* words_ = nullptr;
  size_t num_words_ = 0;
  size_t num_bits_ = 0;
};

/// \brief Mutable view over word-packed bits (an arena-carved scratch row).
class BitSpan {
 public:
  BitSpan() = default;
  BitSpan(uint64_t* words, size_t num_words, size_t num_bits)
      : words_(words), num_words_(num_words), num_bits_(num_bits) {}

  operator ConstBitSpan() const {  // NOLINT(google-explicit-constructor)
    return ConstBitSpan(words_, num_words_, num_bits_);
  }

  size_t num_bits() const { return num_bits_; }
  size_t num_words() const { return num_words_; }
  uint64_t* words() { return words_; }
  const uint64_t* words() const { return words_; }

  bool Test(size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & uint64_t{1};
  }
  void Set(size_t i) { words_[i >> 6] |= uint64_t{1} << (i & 63); }
  void Clear(size_t i) { words_[i >> 6] &= ~(uint64_t{1} << (i & 63)); }
  void ClearAll() {
    for (size_t w = 0; w < num_words_; ++w) words_[w] = 0;
  }
  /// this |= other (sizes must match).
  void UnionWith(ConstBitSpan other) {
    simd::OrInto(words_, other.words(), num_words_);
  }

 private:
  uint64_t* words_ = nullptr;
  size_t num_words_ = 0;
  size_t num_bits_ = 0;
};

/// True iff a ∩ b ≠ ∅ (word-parallel over the common prefix). Regular
/// namespace-scope overloads: a braced initializer list still resolves to
/// the FragmentSet overloads below (ConstBitSpan has no list constructor).
inline bool Intersects(ConstBitSpan a, ConstBitSpan b) {
  const size_t n =
      a.num_words() < b.num_words() ? a.num_words() : b.num_words();
  return simd::AnyAnd(a.words(), b.words(), n);
}
/// True iff a ⊆ b (word-parallel; b's missing tail words read as zero).
inline bool IsSubset(ConstBitSpan a, ConstBitSpan b) {
  const size_t common =
      a.num_words() < b.num_words() ? a.num_words() : b.num_words();
  if (simd::AnyAndNot(a.words(), b.words(), common)) return false;
  for (size_t w = common; w < a.num_words(); ++w) {
    if (a.words()[w] != 0) return false;
  }
  return true;
}

/// \brief Fixed-width bitset over dense ids (fragments, class indices).
///
/// The allocation-search hot path replaces sorted-vector set algebra with
/// word-parallel operations on interned bitsets: Intersects/IsSubset become
/// a handful of AND/OR instructions per 64 ids and allocate nothing. A
/// DenseBitset is sized once (Reset) and reused as a scratch buffer.
class DenseBitset {
 public:
  DenseBitset() = default;
  explicit DenseBitset(size_t num_bits) { Reset(num_bits); }

  /// Resizes to \p num_bits and clears every bit.
  void Reset(size_t num_bits) {
    num_bits_ = num_bits;
    words_.assign((num_bits + 63) / 64, 0);
  }
  /// Clears every bit, keeping the size (no reallocation).
  void ClearAll() { std::fill(words_.begin(), words_.end(), 0); }

  size_t num_bits() const { return num_bits_; }
  size_t num_words() const { return words_.size(); }
  const uint64_t* words() const { return words_.data(); }

  /// Read-only span view (also available implicitly).
  ConstBitSpan view() const {
    return ConstBitSpan(words_.data(), words_.size(), num_bits_);
  }
  operator ConstBitSpan() const {  // NOLINT(google-explicit-constructor)
    return view();
  }

  bool Test(size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & uint64_t{1};
  }
  void Set(size_t i) { words_[i >> 6] |= uint64_t{1} << (i & 63); }
  void Clear(size_t i) { words_[i >> 6] &= ~(uint64_t{1} << (i & 63)); }

  /// this |= other (sizes must match).
  void UnionWith(ConstBitSpan other) {
    simd::OrInto(words_.data(), other.words(), words_.size());
  }
  /// Sets exactly the bits of \p set (clearing everything else).
  void AssignSet(const FragmentSet& set, size_t num_bits) {
    Reset(num_bits);
    for (FragmentId f : set) Set(f);
  }
  /// Copies \p num_words raw words (little-endian bit order) over a bitset
  /// of \p num_bits bits.
  void AssignWords(const uint64_t* words, size_t num_words, size_t num_bits) {
    num_bits_ = num_bits;
    words_.assign(words, words + num_words);
  }

  /// True iff no bit is set.
  bool None() const {
    for (uint64_t w : words_) {
      if (w != 0) return false;
    }
    return true;
  }
  /// Number of set bits.
  size_t Count() const { return simd::PopcountWords(words_.data(), words_.size()); }

  /// Calls \p fn(index) for every set bit in ascending order.
  template <typename Fn>
  void ForEachSetBit(Fn&& fn) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      uint64_t bits = words_[w];
      while (bits != 0) {
        const size_t i = w * 64 + static_cast<size_t>(__builtin_ctzll(bits));
        fn(i);
        bits &= bits - 1;
      }
    }
  }

  /// The set bits as a sorted FragmentSet.
  FragmentSet ToFragmentSet() const {
    FragmentSet out;
    out.reserve(Count());
    ForEachSetBit([&](size_t i) { out.push_back(static_cast<FragmentId>(i)); });
    return out;
  }

  /// True iff a ∩ b ≠ ∅ (word-parallel; sizes must match). Hidden friend:
  /// found only by ADL on DenseBitset arguments, so it never competes with
  /// the FragmentSet overload on braced initializer lists. Delegates to the
  /// ConstBitSpan overload (and through it the SIMD kernels).
  friend bool Intersects(const DenseBitset& a, const DenseBitset& b) {
    return Intersects(a.view(), b.view());
  }
  /// True iff a ⊆ b (word-parallel; sizes must match).
  friend bool IsSubset(const DenseBitset& a, const DenseBitset& b) {
    return IsSubset(a.view(), b.view());
  }

 private:
  size_t num_bits_ = 0;
  std::vector<uint64_t> words_;
};

// --- FragmentSet algebra (sets are sorted and duplicate-free) ---

/// Sorts and deduplicates \p set in place.
void NormalizeSet(FragmentSet* set);
/// a ∪ b.
FragmentSet SetUnion(const FragmentSet& a, const FragmentSet& b);
/// a ∩ b.
FragmentSet SetIntersection(const FragmentSet& a, const FragmentSet& b);
/// a \ b.
FragmentSet SetDifference(const FragmentSet& a, const FragmentSet& b);
/// True iff a ⊆ b.
bool IsSubset(const FragmentSet& a, const FragmentSet& b);
/// True iff a ∩ b ≠ ∅.
bool Intersects(const FragmentSet& a, const FragmentSet& b);
/// True iff \p id ∈ \p set.
bool Contains(const FragmentSet& set, FragmentId id);

}  // namespace qcap
