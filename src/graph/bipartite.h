#ifndef SCHOLARRANK_GRAPH_BIPARTITE_H_
#define SCHOLARRANK_GRAPH_BIPARTITE_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/types.h"

namespace scholar {

/// Dense author index (0..num_authors-1), scoped to one PaperAuthors map.
using AuthorId = uint32_t;

/// Paper-author bipartite incidence in CSR form, used by FutureRank.
///
/// Immutable once built. Both directions are materialized: authors of
/// a paper, and papers of an author.
class PaperAuthors {
 public:
  PaperAuthors() = default;

  /// Builds from per-paper author lists. `lists.size()` defines the number
  /// of papers; author ids may be sparse, the maximum defines
  /// num_authors()-1.
  static PaperAuthors FromLists(
      const std::vector<std::vector<AuthorId>>& lists) {
    std::vector<uint64_t> offsets(lists.size() + 1, 0);
    for (size_t p = 0; p < lists.size(); ++p) {
      offsets[p + 1] = offsets[p] + lists[p].size();
    }
    std::vector<AuthorId> flat;
    flat.reserve(offsets.back());
    for (const auto& list : lists) {
      flat.insert(flat.end(), list.begin(), list.end());
    }
    return PaperAuthors(std::move(offsets), std::move(flat));
  }

  /// Builds from per-paper CSR arrays: paper p's authors are
  /// `paper_authors[paper_offsets[p] .. paper_offsets[p + 1])`. Trusted:
  /// `paper_offsets` starts at 0, never decreases and ends at
  /// `paper_authors.size()`. Author ids may be sparse, as in FromLists.
  PaperAuthors(std::vector<uint64_t> paper_offsets,
               std::vector<AuthorId> paper_authors)
      : paper_offsets_(std::move(paper_offsets)),
        paper_authors_(std::move(paper_authors)) {
    AuthorId max_author = 0;
    for (AuthorId a : paper_authors_) max_author = std::max(max_author, a);
    num_authors_ =
        paper_authors_.empty() ? 0 : static_cast<size_t>(max_author) + 1;

    author_offsets_.assign(num_authors_ + 1, 0);
    for (AuthorId a : paper_authors_) ++author_offsets_[a + 1];
    for (size_t i = 1; i <= num_authors_; ++i) {
      author_offsets_[i] += author_offsets_[i - 1];
    }
    std::vector<uint64_t> cursor(author_offsets_.begin(),
                                 author_offsets_.end() - 1);
    author_papers_.resize(paper_authors_.size());
    for (size_t p = 0; p + 1 < paper_offsets_.size(); ++p) {
      for (uint64_t e = paper_offsets_[p]; e < paper_offsets_[p + 1]; ++e) {
        author_papers_[cursor[paper_authors_[e]]++] = static_cast<NodeId>(p);
      }
    }
  }

  size_t num_papers() const { return paper_offsets_.size() - 1; }
  size_t num_authors() const { return num_authors_; }
  size_t num_links() const { return paper_authors_.size(); }

  /// Authors of paper `p`, in insertion order.
  std::span<const AuthorId> AuthorsOf(NodeId p) const {
    return {paper_authors_.data() + paper_offsets_[p],
            paper_offsets_[p + 1] - paper_offsets_[p]};
  }

  /// Papers of author `a`, sorted by paper id.
  std::span<const NodeId> PapersOf(AuthorId a) const {
    return {author_papers_.data() + author_offsets_[a],
            author_offsets_[a + 1] - author_offsets_[a]};
  }

  size_t PaperCount(AuthorId a) const {
    return author_offsets_[a + 1] - author_offsets_[a];
  }

  bool operator==(const PaperAuthors& other) const = default;

 private:
  std::vector<uint64_t> paper_offsets_{0};
  std::vector<AuthorId> paper_authors_;
  std::vector<uint64_t> author_offsets_{0};
  std::vector<NodeId> author_papers_;
  size_t num_authors_ = 0;
};

}  // namespace scholar

#endif  // SCHOLARRANK_GRAPH_BIPARTITE_H_
