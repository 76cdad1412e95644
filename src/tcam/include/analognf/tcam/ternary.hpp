// Ternary words and binary keys for the digital match path.
//
// The TCAM is the paper's digital baseline (Sec. 2): each stored bit is
// 0, 1 or X (don't-care), a search key is a plain bit vector, and a word
// matches iff every specified bit agrees. Hamming distance — the quantity
// the paper says TCAMs "round to the nearest logic level" — is exposed
// explicitly so the analog comparison (partial matches) can be made.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace analognf::tcam {

enum class Tbit : std::uint8_t { kZero = 0, kOne = 1, kAny = 2 };

// A search key: packed bit vector with typed append helpers, so match
// keys are assembled the way a parser emits them (MSB first per field).
//
// Storage is the match engine's lane layout directly — append-order bit i
// lives in 64-bit word i/64 at bit position i%64 — so a compiled engine
// consumes words() with no per-bit repacking on the search hot path.
// Bits at positions >= width() within the last word are always zero.
class BitKey {
 public:
  BitKey() = default;

  void AppendBit(bool bit) {
    if ((width_ >> 6) == words_.size()) words_.push_back(0);
    if (bit) words_[width_ >> 6] |= std::uint64_t{1} << (width_ & 63);
    ++width_;
  }
  void AppendU8(std::uint8_t value) { AppendBits(value, 8); }
  void AppendU16(std::uint16_t value) { AppendBits(value, 16); }
  void AppendU32(std::uint32_t value) { AppendBits(value, 32); }

  // Empties the key but keeps the word capacity, so per-packet key
  // builders reuse one allocation across a batch.
  void Clear() {
    for (std::uint64_t& w : words_) w = 0;
    width_ = 0;
  }

  // Replaces the key with `width` bits already packed in the lane layout
  // (words[0 .. ceil(width/64)), bits at positions >= width zero). Like
  // Clear(), keeps the word capacity; fixed-layout key builders use it to
  // write whole lanes instead of appending field by field.
  void AssignLanes(const std::uint64_t* words, std::size_t width) {
    const std::size_t n = (width + 63) >> 6;
    if (words_.size() < n) words_.resize(n, 0);
    for (std::size_t w = 0; w < words_.size(); ++w) {
      words_[w] = w < n ? words[w] : 0;
    }
    width_ = width;
  }

  std::size_t width() const { return width_; }
  bool bit(std::size_t i) const {
    return ((words_[i >> 6] >> (i & 63)) & 1u) != 0;
  }
  // Packed lanes, engine layout; word_count() = ceil(width / 64).
  const std::uint64_t* words() const { return words_.data(); }
  std::size_t word_count() const { return (width_ + 63) / 64; }

  // "0"/"1" string, MSB-first in append order.
  std::string ToString() const;
  // Parses a "01" string. Throws std::invalid_argument on other chars.
  static BitKey FromString(const std::string& s);

 private:
  void AppendBits(std::uint32_t value, int width);

  // words_.size() may exceed word_count() after Clear(); trailing words
  // are zero either way.
  std::vector<std::uint64_t> words_;
  std::size_t width_ = 0;
};

// A stored ternary word.
class TernaryWord {
 public:
  TernaryWord() = default;
  explicit TernaryWord(std::vector<Tbit> bits) : bits_(std::move(bits)) {}

  // Parses a string of '0', '1', 'X'/'x'/'*'. Throws on other chars.
  static TernaryWord FromString(const std::string& s);
  // IPv4-style prefix: the top `prefix_len` bits exact, the rest X.
  // prefix_len in [0, 32].
  static TernaryWord FromPrefix(std::uint32_t value, int prefix_len);
  // Concatenation (multi-field rules).
  TernaryWord& Append(const TernaryWord& other);

  std::size_t width() const { return bits_.size(); }
  Tbit bit(std::size_t i) const { return bits_[i]; }
  std::string ToString() const;

  // Number of specified (non-X) bits.
  std::size_t SpecifiedBits() const;

  // Exact ternary match: every specified bit equals the key bit.
  // Throws std::invalid_argument on width mismatch.
  bool Matches(const BitKey& key) const;

  // Number of specified bits that disagree with the key — the Hamming
  // distance a digital TCAM collapses to match/mismatch.
  std::size_t HammingDistance(const BitKey& key) const;

  friend bool operator==(const TernaryWord&, const TernaryWord&) = default;

 private:
  std::vector<Tbit> bits_;
};

}  // namespace analognf::tcam
