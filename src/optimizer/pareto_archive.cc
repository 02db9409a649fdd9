#include "optimizer/pareto_archive.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "optimizer/pareto.h"

namespace midas {

bool ParetoArchive::Insert(Vector cost, std::vector<size_t>* evicted) {
  // With a monotone sequence an equal member always has a smaller
  // sequence, so kReplacedRepresentative cannot occur and the outcome
  // collapses to the historical accept/reject semantics.
  return InsertSequenced(std::move(cost), next_auto_seq_, evicted) ==
         SequencedInsert::kInserted;
}

ParetoArchive::SequencedInsert ParetoArchive::InsertSequenced(
    Vector cost, uint64_t seq, std::vector<size_t>* evicted) {
  ++considered_;
  if (seq >= next_auto_seq_) next_auto_seq_ = seq + 1;
  evicted->clear();
  if (member_set_.count(cost) != 0) {
    // The bitwise-equal member is unique; find its position to compare
    // sequences (O(front), same bound as the dominance pass below).
    const auto it = std::find(costs_.begin(), costs_.end(), cost);
    const size_t pos = static_cast<size_t>(it - costs_.begin());
    if (seqs_[pos] <= seq) {
      ++duplicate_rejections_;
      return SequencedInsert::kRejectedDuplicate;
    }
    seqs_[pos] = seq;
    ++duplicate_replacements_;
    return SequencedInsert::kReplacedRepresentative;
  }
  // Members are mutually non-dominated, so the newcomer cannot both be
  // dominated by one member and dominate another: the first dominator
  // found proves no eviction has been recorded yet.
  std::vector<size_t>& out = *evicted;
  for (size_t i = 0; i < costs_.size(); ++i) {
    if (Dominates(costs_[i], cost)) {
      ++dominated_rejections_;
      out.clear();
      return SequencedInsert::kRejectedDominated;
    }
    if (Dominates(cost, costs_[i])) out.push_back(i);
  }
  if (!out.empty()) {
    for (size_t i : out) member_set_.erase(costs_[i]);
    size_t write = out.front();
    size_t next = 0;
    for (size_t read = write; read < costs_.size(); ++read) {
      if (next < out.size() && out[next] == read) {
        ++next;
        continue;
      }
      costs_[write] = std::move(costs_[read]);
      seqs_[write] = seqs_[read];
      ++write;
    }
    costs_.resize(write);
    seqs_.resize(write);
    evictions_ += out.size();
  }
  member_set_.insert(cost);
  costs_.push_back(std::move(cost));
  seqs_.push_back(seq);
  peak_size_ = std::max(peak_size_, costs_.size());
  return SequencedInsert::kInserted;
}

std::vector<Vector> ParetoArchive::TakeCosts() {
  member_set_.clear();
  std::vector<Vector> out = std::move(costs_);
  costs_.clear();
  seqs_.clear();
  return out;
}

void ParetoArchive::TakeMembers(std::vector<Vector>* costs,
                                    std::vector<uint64_t>* seqs) {
  member_set_.clear();
  *costs = std::move(costs_);
  *seqs = std::move(seqs_);
  costs_.clear();
  seqs_.clear();
}

void ParetoArchive::MergeFrom(ParetoArchive&& other) {
  std::vector<Vector> costs;
  std::vector<uint64_t> seqs;
  other.TakeMembers(&costs, &seqs);
  std::vector<size_t> evicted;
  for (size_t i = 0; i < costs.size(); ++i) {
    InsertSequenced(std::move(costs[i]), seqs[i], &evicted);
  }
}

ParetoArchive ParetoArchive::MergeTree(std::vector<ParetoArchive>&& archives) {
  if (archives.empty()) return ParetoArchive();
  size_t count = archives.size();
  while (count > 1) {
    const size_t half = (count + 1) / 2;
    for (size_t i = 0; i + half < count; ++i) {
      archives[i].MergeFrom(std::move(archives[i + half]));
    }
    count = half;
  }
  return std::move(archives.front());
}

void ParetoArchive::SortBySequence() {
  std::vector<size_t> order(costs_.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [this](size_t a, size_t b) { return seqs_[a] < seqs_[b]; });
  std::vector<Vector> costs;
  std::vector<uint64_t> seqs;
  costs.reserve(order.size());
  seqs.reserve(order.size());
  for (size_t from : order) {
    costs.push_back(std::move(costs_[from]));
    seqs.push_back(seqs_[from]);
  }
  costs_ = std::move(costs);
  seqs_ = std::move(seqs);
}

void ParetoArchive::Clear() {
  costs_.clear();
  seqs_.clear();
  member_set_.clear();
}

}  // namespace midas
