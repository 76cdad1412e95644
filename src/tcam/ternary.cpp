#include "analognf/tcam/ternary.hpp"

#include <stdexcept>

namespace analognf::tcam {

namespace {

inline std::uint32_t ReverseBits32(std::uint32_t v) {
  v = ((v >> 1) & 0x55555555u) | ((v & 0x55555555u) << 1);
  v = ((v >> 2) & 0x33333333u) | ((v & 0x33333333u) << 2);
  v = ((v >> 4) & 0x0F0F0F0Fu) | ((v & 0x0F0F0F0Fu) << 4);
  return __builtin_bswap32(v);
}

}  // namespace

void BitKey::AppendBits(std::uint32_t value, int width) {
  // MSB-first append == LSB-first storage of the bit-reversed value, so
  // a whole field lands with two shifted ORs instead of a per-bit loop.
  const auto w = static_cast<unsigned>(width);
  const std::uint64_t chunk = ReverseBits32(value) >> (32u - w);
  const std::size_t need = (width_ + w + 63) >> 6;
  if (words_.size() < need) words_.resize(need, 0);
  const std::size_t off = width_ & 63;
  words_[width_ >> 6] |= chunk << off;
  if (off + w > 64) words_[(width_ >> 6) + 1] |= chunk >> (64 - off);
  width_ += w;
}

std::string BitKey::ToString() const {
  std::string out;
  out.reserve(width_);
  for (std::size_t i = 0; i < width_; ++i) out.push_back(bit(i) ? '1' : '0');
  return out;
}

BitKey BitKey::FromString(const std::string& s) {
  BitKey key;
  for (char c : s) {
    if (c == '0') {
      key.AppendBit(false);
    } else if (c == '1') {
      key.AppendBit(true);
    } else {
      throw std::invalid_argument("BitKey::FromString: bad character");
    }
  }
  return key;
}

TernaryWord TernaryWord::FromString(const std::string& s) {
  std::vector<Tbit> bits;
  bits.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '0':
        bits.push_back(Tbit::kZero);
        break;
      case '1':
        bits.push_back(Tbit::kOne);
        break;
      case 'X':
      case 'x':
      case '*':
        bits.push_back(Tbit::kAny);
        break;
      default:
        throw std::invalid_argument("TernaryWord::FromString: bad character");
    }
  }
  return TernaryWord(std::move(bits));
}

TernaryWord TernaryWord::FromPrefix(std::uint32_t value, int prefix_len) {
  if (prefix_len < 0 || prefix_len > 32) {
    throw std::invalid_argument("TernaryWord::FromPrefix: bad prefix length");
  }
  std::vector<Tbit> bits;
  bits.reserve(32);
  for (int i = 31; i >= 0; --i) {
    if (31 - i < prefix_len) {
      bits.push_back(((value >> i) & 1u) != 0 ? Tbit::kOne : Tbit::kZero);
    } else {
      bits.push_back(Tbit::kAny);
    }
  }
  return TernaryWord(std::move(bits));
}

TernaryWord& TernaryWord::Append(const TernaryWord& other) {
  bits_.insert(bits_.end(), other.bits_.begin(), other.bits_.end());
  return *this;
}

std::string TernaryWord::ToString() const {
  std::string out;
  out.reserve(bits_.size());
  for (Tbit b : bits_) {
    out.push_back(b == Tbit::kZero ? '0' : b == Tbit::kOne ? '1' : 'X');
  }
  return out;
}

std::size_t TernaryWord::SpecifiedBits() const {
  std::size_t count = 0;
  for (Tbit b : bits_) {
    if (b != Tbit::kAny) ++count;
  }
  return count;
}

bool TernaryWord::Matches(const BitKey& key) const {
  return HammingDistance(key) == 0;
}

std::size_t TernaryWord::HammingDistance(const BitKey& key) const {
  if (key.width() != bits_.size()) {
    throw std::invalid_argument("TernaryWord: key width mismatch");
  }
  std::size_t distance = 0;
  for (std::size_t i = 0; i < bits_.size(); ++i) {
    if (bits_[i] == Tbit::kAny) continue;
    const bool stored = bits_[i] == Tbit::kOne;
    if (stored != key.bit(i)) ++distance;
  }
  return distance;
}

}  // namespace analognf::tcam
