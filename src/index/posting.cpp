#include "src/index/posting.hpp"

#include <algorithm>

namespace ssdse {

PostingList::PostingList(std::vector<Posting> postings)
    : postings_(std::move(postings)) {
  std::sort(postings_.begin(), postings_.end(), freq_sorted_before);
}

}  // namespace ssdse
