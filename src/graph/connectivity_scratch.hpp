// Dense per-part accumulator with O(1) logical clearing via version stamps.
//
// The pattern "zero a per-part array, accumulate edge weights over one
// vertex's neighbourhood, read a handful of entries back" is the inner loop
// of every local-search kernel (gain computation, greedy majority votes).  A
// naive `std::vector<double> acc(k)` per vertex costs an allocation plus an
// O(k) clear; this scratch is allocated once and "cleared" by bumping a
// 64-bit epoch, so a full scan is O(deg(v)) with zero allocations.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/types.hpp"

namespace gapart {

class ConnectivityScratch {
 public:
  ConnectivityScratch() = default;
  explicit ConnectivityScratch(std::size_t num_slots) { resize(num_slots); }

  void resize(std::size_t num_slots) {
    sum_.assign(num_slots, 0.0);
    stamp_.assign(num_slots, 0);
    touched_.clear();
    touched_.reserve(num_slots);
    // Stamps start at 0, so the epoch must not: otherwise an add() before
    // the first begin() would take the accumulate branch and skip touched_.
    epoch_ = 1;
  }

  std::size_t size() const { return sum_.size(); }

  /// Starts a new accumulation; all previous sums become logically zero.
  void begin() {
    ++epoch_;
    touched_.clear();
  }

  /// sum[p] += w, stamping p as touched in the current epoch.
  void add(PartId p, double w) {
    const auto i = static_cast<std::size_t>(p);
    if (stamp_[i] != epoch_) {
      stamp_[i] = epoch_;
      sum_[i] = w;
      touched_.push_back(p);
    } else {
      sum_[i] += w;
    }
  }

  /// Accumulated weight for slot p this epoch (0 when untouched).
  double operator[](PartId p) const {
    const auto i = static_cast<std::size_t>(p);
    return stamp_[i] == epoch_ ? sum_[i] : 0.0;
  }

  /// Slots with at least one add() this epoch, in first-touch order.
  std::span<const PartId> touched() const { return touched_; }

 private:
  std::vector<double> sum_;
  std::vector<std::uint64_t> stamp_;
  std::vector<PartId> touched_;
  std::uint64_t epoch_ = 1;
};

/// Dense per-vertex flag set with O(1) logical clearing via version stamps —
/// the vertex-indexed sibling of ConnectivityScratch (worklist membership,
/// visited marks).  Allocated once per graph; clear() bumps the epoch, so a
/// frontier climb touching d vertices costs O(d), not an O(V) memset.
class EpochFlags {
 public:
  EpochFlags() = default;
  explicit EpochFlags(std::size_t num_slots) { resize(num_slots); }

  void resize(std::size_t num_slots) {
    // Stamps start at 0, so the epoch must not (see ConnectivityScratch).
    stamp_.assign(num_slots, 0);
    epoch_ = 1;
  }

  std::size_t size() const { return stamp_.size(); }

  /// Grows the slot count preserving current flags (new slots start false:
  /// their stamp is 0, which is never a live epoch).  Unlike resize() this
  /// does not touch existing slots, so growing by d costs O(d) amortized —
  /// what lets a long-lived PartitionState absorb graph growth without an
  /// O(V) scratch reset per delta.
  void grow(std::size_t num_slots) {
    if (num_slots > stamp_.size()) stamp_.resize(num_slots, 0);
  }

  /// Room for num_slots slots, so grow() up to there does not reallocate.
  void reserve(std::size_t num_slots) { stamp_.reserve(num_slots); }

  /// All flags become logically false.
  void clear() { ++epoch_; }

  void set(VertexId v) { stamp_[static_cast<std::size_t>(v)] = epoch_; }
  void reset(VertexId v) { stamp_[static_cast<std::size_t>(v)] = 0; }
  bool test(VertexId v) const {
    return stamp_[static_cast<std::size_t>(v)] == epoch_;
  }

 private:
  std::vector<std::uint64_t> stamp_;
  std::uint64_t epoch_ = 1;
};

}  // namespace gapart
