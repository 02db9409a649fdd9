#ifndef MIDAS_OPTIMIZER_PARETO_ARCHIVE_H_
#define MIDAS_OPTIMIZER_PARETO_ARCHIVE_H_

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "linalg/matrix.h"

namespace midas {

/// \brief Online Pareto archive over cost vectors (all objectives
/// minimised): the streaming counterpart of `ParetoFrontIndices` +
/// first-representative dedup.
///
/// Feeding every candidate of a set through `Insert` in order leaves the
/// archive holding exactly the distinct non-dominated cost vectors, each
/// represented by its *first* occurrence and kept in arrival order — the
/// same cost sequence the materialize-everything pipeline produces, but
/// with O(front) resident state instead of O(candidates). Members carry
/// no payload: a member's sequence number identifies its candidate, so a
/// caller rebuilds whatever it needs (e.g. the plan, via
/// `PlanSpace::Materialize`) for the final members only.
///
/// Insert semantics:
///  - a cost bitwise equal to a member is rejected (hashed O(1) dedup,
///    `VectorHash`), keeping the earlier representative;
///  - a cost dominated by any member is rejected;
///  - otherwise the cost is appended and every member it dominates is
///    evicted, preserving the relative order of the survivors.
///
/// Each insert is O(archive size); the archive never holds a dominated
/// point, so the peak working set of a streaming pass is bounded by
/// O(max front + chunk).
///
/// Every member also carries a sequence number — its global arrival rank
/// in the candidate stream. `Insert` assigns sequences from an internal
/// monotone counter; `InsertSequenced` takes an explicit rank so disjoint
/// shards of one stream can fold into independent archives and later be
/// recombined with `MergeFrom`. Dedup under explicit sequences is
/// *dedup-stable*: of two bitwise-equal costs the one with the smaller
/// sequence wins regardless of insertion order, which together with the
/// transitivity of dominance makes merging associative and commutative —
/// any merge tree over any partition of the stream yields the same member
/// set, and `SortBySequence` then reproduces the serial arrival order
/// exactly.
class ParetoArchive {
 public:
  /// Outcome of a sequenced insertion attempt.
  enum class SequencedInsert {
    /// The cost joined the archive (possibly evicting members).
    kInserted,
    /// A bitwise-equal member existed with a larger sequence; the member
    /// kept its position but adopted the smaller incoming sequence.
    kReplacedRepresentative,
    /// A bitwise-equal member existed with a smaller-or-equal sequence.
    kRejectedDuplicate,
    /// A member dominates the cost.
    kRejectedDominated,
  };

  /// Attempts to add `cost`. Returns true and appends it if it joins the
  /// archive; `evicted` then holds the ascending positions (in the
  /// pre-insert member order) of the members it displaced. On a false
  /// return (duplicate or dominated) the archive is untouched and
  /// `evicted` is left empty. The member's sequence is the next value of
  /// the internal arrival counter (which counts every offer, accepted or
  /// not, so sequences match candidate-stream ranks).
  bool Insert(Vector cost, std::vector<size_t>* evicted);

  /// `Insert` with an explicit global sequence number. `evicted` is
  /// filled exactly as for `Insert` and is empty unless the outcome is
  /// `kInserted`.
  SequencedInsert InsertSequenced(Vector cost, uint64_t seq,
                                  std::vector<size_t>* evicted);

  /// Drains `other` into this archive via sequenced inserts. Dedup
  /// stability (smaller sequence wins) and transitivity of dominance make
  /// the operation associative and commutative on the member set: merging
  /// shard archives in any tree shape yields the same members, ready for
  /// `SortBySequence`. Only members move — `other`'s lifetime counters
  /// (considered/evictions/peaks) stay behind, so read per-shard stats
  /// *before* merging; this archive counts each incoming member as one
  /// offered insert.
  void MergeFrom(ParetoArchive&& other);

  /// Folds `archives` into one with a deterministic balanced merge tree
  /// (pairwise rounds, halving each round); returns an empty archive for
  /// empty input. The result's member set is independent of the tree
  /// shape — the tree only balances merge work.
  static ParetoArchive MergeTree(std::vector<ParetoArchive>&& archives);

  /// Members in arrival order (mutually non-dominated, distinct).
  const std::vector<Vector>& costs() const { return costs_; }
  /// Sequence numbers aligned with `costs()`.
  const std::vector<uint64_t>& seqs() const { return seqs_; }
  size_t size() const { return costs_.size(); }
  bool empty() const { return costs_.empty(); }

  /// Moves the members out and resets the archive (stats survive).
  std::vector<Vector> TakeCosts();

  /// Moves costs and their aligned sequences out and resets the archive
  /// (stats survive).
  void TakeMembers(std::vector<Vector>* costs, std::vector<uint64_t>* seqs);

  /// Reorders the members ascending by sequence number (ties keep their
  /// current relative order).
  void SortBySequence();

  void Clear();

  /// High-water mark of the member count.
  size_t peak_size() const { return peak_size_; }
  /// Total costs offered to Insert.
  uint64_t considered() const { return considered_; }
  /// Rejected as bitwise duplicates of a member.
  uint64_t duplicate_rejections() const { return duplicate_rejections_; }
  /// Rejected as bitwise duplicates but with a smaller sequence, so the
  /// member adopted the incoming sequence in place.
  uint64_t duplicate_replacements() const { return duplicate_replacements_; }
  /// Rejected as dominated by a member.
  uint64_t dominated_rejections() const { return dominated_rejections_; }
  /// Members displaced by later inserts.
  uint64_t evictions() const { return evictions_; }

 private:
  std::vector<Vector> costs_;
  std::vector<uint64_t> seqs_;
  std::unordered_set<Vector, VectorHash> member_set_;
  uint64_t next_auto_seq_ = 0;
  size_t peak_size_ = 0;
  uint64_t considered_ = 0;
  uint64_t duplicate_rejections_ = 0;
  uint64_t duplicate_replacements_ = 0;
  uint64_t dominated_rejections_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace midas

#endif  // MIDAS_OPTIMIZER_PARETO_ARCHIVE_H_
