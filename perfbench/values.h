// Self-describing 100-byte values for the small-value workload. Each value
// names its key, its writer and that writer's sequence number, and fills
// the rest with bytes derived from those three, so a reader can tell a
// stale version (allowed at R+W=N) from a foreign or garbled one (never
// allowed) without remembering what was written.

#ifndef HOTMAN_PERFBENCH_VALUES_H_
#define HOTMAN_PERFBENCH_VALUES_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>

#include "common/bytes.h"

namespace perfbench {

inline constexpr std::size_t kSmallValueBytes = 100;

/// Highest sequence number each writer has handed out. Writer 0 is the
/// preloader (sequence 0 only); writers 1.. are the clients.
class SeqBook {
 public:
  explicit SeqBook(std::size_t writers)
      : writers_(writers),
        high_(std::make_unique<std::atomic<std::uint64_t>[]>(writers)) {
    for (std::size_t w = 0; w < writers; ++w) high_[w].store(0);
  }
  /// Reserves the writer's next sequence number, before the put is sent.
  std::uint64_t Next(std::size_t writer) { return high_[writer].fetch_add(1) + 1; }
  std::uint64_t High(std::size_t writer) const { return high_[writer].load(); }
  std::size_t writers() const { return writers_; }

 private:
  std::size_t writers_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> high_;
};

inline std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Appends the filler that follows the header: letters drawn from a stream
/// seeded by the header bytes, up to kSmallValueBytes.
inline void AppendFiller(std::string_view header, hotman::Bytes* out) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a of the header
  for (unsigned char c : header) h = (h ^ c) * 0x100000001b3ull;
  while (out->size() < kSmallValueBytes) {
    h = Mix64(h);
    out->push_back(static_cast<std::uint8_t>('a' + h % 26));
  }
}

inline hotman::Bytes MakeSmallValue(std::string_view key, std::size_t writer,
                                    std::uint64_t seq) {
  char header[96];
  const int len = std::snprintf(header, sizeof(header), "k=%.*s|w=%zu|s=%llu|",
                                static_cast<int>(key.size()), key.data(),
                                writer, static_cast<unsigned long long>(seq));
  const std::string_view head(header, static_cast<std::size_t>(len));
  hotman::Bytes out(head.begin(), head.end());
  AppendFiller(head, &out);
  return out;
}

/// True when `value` is a well-formed value for `key` written by a known
/// writer with a sequence number that writer had already handed out when
/// the read returned. Any version passes, however stale.
inline bool CheckSmallValue(const hotman::Bytes& value, std::string_view key,
                            const SeqBook& book) {
  if (value.size() != kSmallValueBytes) return false;
  const std::string_view text(reinterpret_cast<const char*>(value.data()),
                              value.size());
  unsigned long long writer = 0;
  unsigned long long seq = 0;
  int header_len = 0;
  const std::string prefix = "k=" + std::string(key) + "|";
  if (text.substr(0, prefix.size()) != prefix) return false;
  const std::string rest(text.substr(prefix.size()));
  if (std::sscanf(rest.c_str(), "w=%llu|s=%llu|%n", &writer, &seq,
                  &header_len) != 2 ||
      header_len == 0) {
    return false;
  }
  if (writer >= book.writers() || seq > book.High(writer)) return false;
  const auto head_size = prefix.size() + static_cast<std::size_t>(header_len);
  hotman::Bytes expect(value.begin(),
                       value.begin() + static_cast<std::ptrdiff_t>(head_size));
  AppendFiller(text.substr(0, head_size), &expect);
  return expect == value;
}

}  // namespace perfbench

#endif  // HOTMAN_PERFBENCH_VALUES_H_
