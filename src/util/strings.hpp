// Small string helpers shared across modules (path splitting for the RESTful
// router, keyword parsing in the DDI service layer, id formatting).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace vdap::util {

/// Splits `s` on `sep`, dropping empty pieces ("/a//b" -> {"a","b"}).
std::vector<std::string> split(std::string_view s, char sep);

/// Splits `s` on `sep`, keeping empty pieces ("a,,b" -> {"a","","b"}).
std::vector<std::string> split_keep_empty(std::string_view s, char sep);

/// Joins pieces with `sep`.
std::string join(const std::vector<std::string>& pieces, std::string_view sep);

bool starts_with(std::string_view s, std::string_view prefix);
bool ends_with(std::string_view s, std::string_view suffix);

/// Trims ASCII whitespace from both ends.
std::string_view trim(std::string_view s);

std::string to_lower(std::string_view s);

/// printf-style formatting into std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// FNV-1a-64's offset basis: the state to start fnv1a_add from.
inline constexpr std::uint64_t kFnv1aBasis = 14695981039346656037ULL;

/// Folds `n` bytes into the FNV-1a-64 state `h` and returns the new state,
/// so a hash can be built piece by piece. The one FNV-1a loop of the
/// codebase: block and ring checksums, ingest routing, the fleet digests.
/// Header-only so hot loops inline it, and allocation-free so the flight
/// crash handler may call it from a signal handler.
inline std::uint64_t fnv1a_add(std::uint64_t h, const void* data,
                               std::size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}
inline std::uint64_t fnv1a_add(std::uint64_t h, std::string_view bytes) {
  return fnv1a_add(h, bytes.data(), bytes.size());
}
/// Folds `v` as its eight bytes, low byte first, on any host.
inline std::uint64_t fnv1a_add_u64(std::uint64_t h, std::uint64_t v) {
  unsigned char bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<unsigned char>(v >> (8 * i));
  }
  return fnv1a_add(h, bytes, sizeof bytes);
}

/// Stable non-cryptographic 64-bit hash. Used for content ids, pseudonym
/// derivation, and the data-sharing bus' message auth tags; NOT a security
/// primitive (documented as a simulation stand-in). It starts from
/// 1469598103934665603, one digit short of FNV-1a's basis, and so does
/// RngStream's name mix: attestation tokens, privacy pseudonyms and every
/// named RNG stream derive from that basis, so it can change only in the
/// same change as the RNG engine, which moves every sim-plane byte.
inline std::uint64_t fnv1a(std::string_view s) {
  return fnv1a_add(1469598103934665603ULL, s);
}

/// Renders a byte count as a human-readable string ("1.5 MiB").
std::string human_bytes(std::uint64_t bytes);

}  // namespace vdap::util
