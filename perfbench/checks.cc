#include "checks.h"

#include <algorithm>
#include <set>
#include <tuple>

namespace perfbench {

using pgrid::KeyPath;
using pgrid::net::WireEntry;

namespace {

/// Bits of `p` as a '0'/'1' string, read bit by bit.
std::string Bits(const KeyPath& p) {
  std::string s;
  for (size_t i = 0; i < p.length(); ++i) s.push_back(p.bit(i) != 0 ? '1' : '0');
  return s;
}

std::string Describe(const WireEntry& e) {
  return e.holder + "/" + std::to_string(e.item_id) + "/" + Bits(e.key) + "/v" +
         std::to_string(e.version);
}

std::vector<std::string> SortedEntries(const std::vector<WireEntry>& entries) {
  std::vector<std::string> out;
  for (const WireEntry& e : entries) out.push_back(Describe(e));
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

std::string CheckReferenceProperty(const std::vector<PeerView>& peers) {
  std::vector<std::string> bits;
  bits.reserve(peers.size());
  for (const PeerView& p : peers) bits.push_back(Bits(p.path));
  for (size_t id = 0; id < peers.size(); ++id) {
    const std::string& own = bits[id];
    if (peers[id].refs.size() > own.size()) {
      return "peer " + std::to_string(id) + " has references beyond its path length";
    }
    for (size_t l = 1; l <= peers[id].refs.size(); ++l) {
      for (uint32_t r : peers[id].refs[l - 1]) {
        if (r >= peers.size()) return "peer " + std::to_string(id) + " references unknown peer";
        const std::string& other = bits[r];
        const bool ok = other.size() >= l && other.compare(0, l - 1, own, 0, l - 1) == 0 &&
                        other[l - 1] != own[l - 1];
        if (!ok) {
          return "reference property: peer " + std::to_string(id) + " (" + own +
                 ") level " + std::to_string(l) + " -> peer " + std::to_string(r) + " (" +
                 other + ")";
        }
      }
    }
  }
  return "";
}

std::string CheckCoverage(const std::vector<PeerView>& peers, size_t maxl) {
  std::set<std::string> paths;
  for (const PeerView& p : peers) paths.insert(Bits(p.path));
  for (uint64_t k = 0; k < (uint64_t{1} << maxl); ++k) {
    std::string key;
    for (size_t i = 0; i < maxl; ++i) key.push_back((k >> (maxl - 1 - i)) & 1 ? '1' : '0');
    bool covered = false;
    for (size_t len = 0; len <= maxl && !covered; ++len) {
      covered = paths.count(key.substr(0, len)) > 0;
    }
    if (!covered) return "coverage: no peer is responsible for key " + key;
  }
  return "";
}

std::string CheckAverageDepth(const std::vector<PeerView>& peers, size_t maxl,
                              double fraction) {
  if (peers.empty()) return "average depth: no peers";
  double sum = 0;
  for (const PeerView& p : peers) sum += static_cast<double>(p.path.length());
  const double avg = sum / static_cast<double>(peers.size());
  if (avg < fraction * static_cast<double>(maxl)) {
    return "average depth " + std::to_string(avg) + " < " + std::to_string(fraction) +
           " * maxl " + std::to_string(maxl);
  }
  return "";
}

std::string CheckSameDigest(uint64_t a, uint64_t b, size_t threads_a, size_t threads_b) {
  if (a == b) return "";
  return "grid digest differs between " + std::to_string(threads_a) + " and " +
         std::to_string(threads_b) + " threads";
}

std::string CheckAllFound(uint64_t queries, uint64_t found) {
  if (queries == found) return "";
  return "queries: " + std::to_string(queries - found) + " of " + std::to_string(queries) +
         " found no responsible peer";
}

std::string CheckResponsible(const std::vector<Answer>& answers) {
  for (const Answer& a : answers) {
    if (!a.found) return "query for " + Bits(a.key) + " found no responsible peer";
    const std::string key = Bits(a.key);
    const std::string path = Bits(a.responder_path);
    if (path.size() > key.size() || key.compare(0, path.size(), path) != 0) {
      return "query for " + key + " answered by a peer with path " + path;
    }
  }
  return "";
}

std::string CheckSearchHit(const std::vector<WireEntry>& entries, uint64_t item_id,
                           const std::string& holder) {
  for (const WireEntry& e : entries) {
    if (e.item_id == item_id && e.holder == holder) return "";
  }
  return "search for item " + std::to_string(item_id) + " (holder " + holder +
         ") did not return it; " + std::to_string(entries.size()) + " entries returned";
}

std::string CheckRecovered(const NodeState& before, const NodeState& after) {
  const std::string who = "node " + before.address + " after restart: ";
  if (Bits(before.path) != Bits(after.path)) {
    return who + "path " + Bits(after.path) + " != " + Bits(before.path);
  }
  if (before.refs.size() != after.refs.size()) return who + "reference levels differ";
  for (size_t l = 0; l < before.refs.size(); ++l) {
    std::vector<std::string> a = before.refs[l], b = after.refs[l];
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    if (a != b) return who + "references at level " + std::to_string(l + 1) + " differ";
  }
  if (SortedEntries(before.entries) != SortedEntries(after.entries)) {
    return who + "entries differ (" + std::to_string(after.entries.size()) + " vs " +
           std::to_string(before.entries.size()) + ")";
  }
  return "";
}

}  // namespace perfbench
