// Correctness checks of the benchmark's outputs.
//
// Each check works on plain copies of what the program produced (paths,
// reference lists, query answers, node states) and recomputes the property
// from the paper's definitions on its own; none calls the program's
// invariant checker. Every check returns an empty string when the property
// holds and a description of the first violation otherwise. `perfbench
// --selftest` shows each of them failing on a corrupted copy.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "key/key_path.h"
#include "net/protocol.h"

namespace perfbench {

/// One simulator peer as the checks see it.
struct PeerView {
  pgrid::KeyPath path;
  std::vector<std::vector<uint32_t>> refs;  // refs[l-1] = peers at level l
};

/// Reference property (Sec. 2): a level-l reference of a peer agrees with the
/// peer's path on bits 1..l-1 and differs from it at bit l.
std::string CheckReferenceProperty(const std::vector<PeerView>& peers);

/// Coverage: every maxl-bit key has a peer whose path is a prefix of it.
std::string CheckCoverage(const std::vector<PeerView>& peers, size_t maxl);

/// Average path length >= fraction * maxl.
std::string CheckAverageDepth(const std::vector<PeerView>& peers, size_t maxl,
                              double fraction);

/// Two builds of one seed on different thread counts agree.
std::string CheckSameDigest(uint64_t a, uint64_t b, size_t threads_a, size_t threads_b);

/// Every query of a batch found a responsible peer.
std::string CheckAllFound(uint64_t queries, uint64_t found);

/// A query answer: the key and the path of the peer that answered it.
struct Answer {
  pgrid::KeyPath key;
  bool found = false;
  pgrid::KeyPath responder_path;
};

/// Every answer was found and came from a peer whose path is a prefix of the key.
std::string CheckResponsible(const std::vector<Answer>& answers);

/// A search for item `item_id` returned that item with `holder` as its holder.
std::string CheckSearchHit(const std::vector<pgrid::net::WireEntry>& entries,
                           uint64_t item_id, const std::string& holder);

/// The persistent state of one node, as compared across a restart.
struct NodeState {
  std::string address;
  pgrid::KeyPath path;
  std::vector<std::vector<std::string>> refs;  // refs[l-1]
  std::vector<pgrid::net::WireEntry> entries;
};

/// The state recovered from disk equals the state held before the stop
/// (entries and each level's references compared as sets).
std::string CheckRecovered(const NodeState& before, const NodeState& after);

}  // namespace perfbench
