#include "crypto/ggm_tree.hpp"

#include <bit>
#include <cassert>

namespace tc::crypto {

namespace {
/// Walk `levels` steps down from `node`: bit (levels-1-i) of `index` selects
/// the child at step i.
Key128 WalkDown(const Prg& prg, Key128 node, uint64_t index, uint32_t levels) {
  for (uint32_t i = 0; i < levels; ++i) {
    node = prg.ExpandOne(node, (index >> (levels - 1 - i)) & 1);
  }
  return node;
}
}  // namespace

GgmTree::GgmTree(Key128 root_seed, uint32_t height, PrgKind prg_kind)
    : root_(root_seed), height_(height), prg_(MakePrg(prg_kind)) {
  assert(height >= 1 && height <= 63);
}

Result<Key128> GgmTree::DeriveLeaf(uint64_t index) const {
  return DeriveNode(height_, index);
}

Result<Key128> GgmTree::DeriveNode(uint32_t depth, uint64_t index) const {
  if (depth > height_) return OutOfRange("node depth exceeds tree height");
  if (depth < 64 && index >= (uint64_t{1} << depth)) {
    return OutOfRange("node index out of range for depth");
  }
  return WalkDown(*prg_, root_, index, depth);
}

Result<std::vector<AccessToken>> GgmTree::CoverRange(uint64_t first,
                                                     uint64_t last) const {
  if (first > last) return InvalidArgument("empty token range");
  if (last >= num_leaves()) return OutOfRange("leaf index exceeds keystream");

  // Canonical cover: greedily take the largest aligned subtree that starts
  // at `first` and does not extend past `last`.
  std::vector<AccessToken> cover;
  uint64_t pos = first;
  while (pos <= last) {
    // Largest level such that pos is aligned and the subtree fits.
    uint32_t up = 0;
    while (up < height_) {
      uint64_t size = uint64_t{2} << up;  // subtree leaf count at up+1
      if ((pos & (size - 1)) != 0) break;
      if (pos + size - 1 > last) break;
      ++up;
    }
    uint64_t size = uint64_t{1} << up;
    uint32_t depth = height_ - up;
    uint64_t index = pos >> up;
    TC_ASSIGN_OR_RETURN(Key128 key, DeriveNode(depth, index));
    cover.push_back(AccessToken{depth, index, key});
    SecureZero(key);
    pos += size;
    if (pos == 0) break;  // wrapped (whole 2^64 space) — cannot happen h<=63
  }
  return cover;
}

TokenSet::TokenSet(std::vector<AccessToken> tokens, uint32_t tree_height,
                   PrgKind prg_kind)
    : tokens_(std::move(tokens)),
      height_(tree_height),
      prg_(MakePrg(prg_kind)) {}

uint64_t TokenSet::FirstLeaf(const AccessToken& t, uint32_t tree_height) {
  return t.index << (tree_height - t.depth);
}

uint64_t TokenSet::LastLeaf(const AccessToken& t, uint32_t tree_height) {
  uint32_t up = tree_height - t.depth;
  return (t.index << up) + ((uint64_t{1} << up) - 1);
}

bool TokenSet::Covers(uint64_t leaf_index) const {
  for (const auto& t : tokens_) {
    if (leaf_index >= FirstLeaf(t, height_) &&
        leaf_index <= LastLeaf(t, height_)) {
      return true;
    }
  }
  return false;
}

Result<Key128> TokenSet::DeriveLeaf(uint64_t leaf_index) const {
  for (const auto& t : tokens_) {
    uint64_t first = FirstLeaf(t, height_);
    uint64_t last = LastLeaf(t, height_);
    if (leaf_index < first || leaf_index > last) continue;
    // The low (height - depth) bits of leaf_index select the path within
    // the token's subtree.
    return WalkDown(*prg_, t.node_key, leaf_index, height_ - t.depth);
  }
  return PermissionDenied("no access token covers requested key");
}

SequentialLeafIterator::SequentialLeafIterator(Key128 root_key,
                                               uint32_t root_depth,
                                               uint64_t root_index,
                                               uint32_t tree_height,
                                               uint64_t start_leaf,
                                               PrgKind prg_kind)
    : prg_(MakePrg(prg_kind)), root_depth_(root_depth), height_(tree_height) {
  uint32_t sub_height = tree_height - root_depth;
  first_ = root_index << sub_height;
  end_ = first_ + (uint64_t{1} << sub_height);
  assert(start_leaf >= first_ && start_leaf < end_);
  path_.reserve(sub_height + 1);
  path_.push_back({root_key, root_index});
  current_ = start_leaf;
  DescendTo(start_leaf);
}

void SequentialLeafIterator::DescendTo(uint64_t leaf_index) {
  // Extend the path from its current tail down to the leaf.
  while (path_.size() < static_cast<size_t>(height_ - root_depth_) + 1) {
    uint32_t depth = root_depth_ + static_cast<uint32_t>(path_.size()) - 1;
    uint32_t shift = height_ - depth - 1;
    bool right = (leaf_index >> shift) & 1;
    Key128 child = prg_->ExpandOne(path_.back().key, right);
    uint64_t child_index = (path_.back().index << 1) | (right ? 1 : 0);
    path_.push_back({child, child_index});
    SecureZero(child);
  }
}

bool SequentialLeafIterator::Seek(uint64_t leaf) {
  if (leaf < first_ || leaf >= end_) return false;
  // The path's leaf, not current_ (which sits at end_ once Next() ran off
  // the subtree), anchors the pop: the highest bit in which the two leaf
  // indices differ is the number of bottom path steps that change.
  path_.resize(path_.size() - std::bit_width(path_.back().index ^ leaf));
  DescendTo(leaf);
  current_ = leaf;
  return true;
}

bool SequentialLeafIterator::Next() {
  if (Seek(current_ + 1)) return true;
  current_ = end_;
  return false;
}

}  // namespace tc::crypto
